"""``python -m conedyn ...`` runs the conedyn command line."""

from .cli import main

if __name__ == "__main__":
    main()
