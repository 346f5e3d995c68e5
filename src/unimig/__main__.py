"""``python -m unimig ...`` runs the command-line front end."""

from unimig.cli import main

main()
