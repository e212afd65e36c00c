"""``python -m polyaut``: the command-line interface (polyaut.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
