"""Reporting helpers for the benchmark harness.

Some benchmarks regenerate a descriptive table or an ablation as they time it.  They
render it as text; :func:`emit_report` prints it with a banner so that it stands out
in the benchmark log.
"""

from __future__ import annotations


def emit_report(title: str, text: str) -> None:
    """Print a reproduced artifact with a visible banner."""
    banner = "=" * 78
    print()
    print(banner)
    print(f"== {title}")
    print(banner)
    print(text)
    print(banner)
