"""`python -m invk`: the `invk` command line, without an installed script."""

from .cli import main

main()
