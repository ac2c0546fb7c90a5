"""perfbench: the repository's performance benchmark (see README.md)."""
