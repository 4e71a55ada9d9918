"""End-to-end benchmark of repro: see README.md; entry point run.py."""
