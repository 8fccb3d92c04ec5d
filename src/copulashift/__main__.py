"""``python -m copulashift``: the same command line as the ``copulashift`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
