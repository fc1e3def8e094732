"""The repository's end-to-end benchmark: see bench/README.md."""
