"""Argument types shared by the ``python -m repro`` subcommands."""

from __future__ import annotations

import argparse


def int_at_least(minimum: int):
    """Argparse type: an integer >= ``minimum`` (``--jobs 0`` and
    ``--warmup -1`` must fail at the parser, not deep in a
    simulation)."""
    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {value!r}") from None
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {number}")
        return number
    return parse
