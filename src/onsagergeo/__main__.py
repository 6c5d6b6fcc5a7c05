"""`python -m onsagergeo`: the command-line interface, runnable from a source
checkout (with `src` on the path) without installing the package."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
