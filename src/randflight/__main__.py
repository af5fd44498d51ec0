"""``python -m randflight``: the command-line interface of `randflight.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
