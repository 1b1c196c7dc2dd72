"""``python -m grl``: the ``grl`` command, for checkouts without the installed script."""

from .cli import main

if __name__ == "__main__":
    main()
