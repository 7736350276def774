"""``python -m chainbounds``: the command-line interface, as the installed
``chainbounds`` command runs it (``cli`` is imported, so its bytecode is
cached, unlike under ``python -m chainbounds.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
