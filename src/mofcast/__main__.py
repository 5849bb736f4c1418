"""``python -m mofcast``: the command-line interface of :mod:`mofcast.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
