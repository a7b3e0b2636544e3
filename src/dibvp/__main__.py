"""``python -m dibvp``: the command line front end."""

from .cli import entry

entry()
