"""``python -m schubmc``: the same command line as the ``schubmc`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
