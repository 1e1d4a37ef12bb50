"""``python -m ghostbench``: the same command line as the ``ghostbench`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
