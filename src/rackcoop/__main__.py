"""``python -m rackcoop``: the ``rackcoop`` command line."""

from .cli import run

if __name__ == "__main__":
    run()
