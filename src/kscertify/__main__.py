"""``python -m kscertify``: the same commands as the ``kscertify`` script."""

from .cli import main

main()
