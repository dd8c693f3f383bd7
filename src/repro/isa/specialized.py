"""Empty: programs are no longer compiled; kept for its one caller below."""


def clear_cache() -> None:
    """No-op; ``perfbench/workloads.py`` imports and calls it."""
