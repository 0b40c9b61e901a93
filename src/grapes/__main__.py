"""Entry point for ``python -m grapes``: the same commands as ``grapes``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
