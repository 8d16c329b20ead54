"""``python -m bridgekit``: the command-line front end."""

from .cli import entry

entry()
