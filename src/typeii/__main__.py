"""`python -m typeii`: the `typeii` command line, exit status included."""
from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    raise SystemExit(main())
