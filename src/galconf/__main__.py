"""``python -m galconf``: the galconf command line."""

import sys

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    sys.exit(main())
