"""The row format of every matrix CSV, and a worker that writes it for part
of a feature matrix.

A row is its node id, counted from ``node`` and after an optional prefix,
then its values as ``repr`` floats, all comma-separated.

Run by path as ``python -I -S _csv_rows.py NODE F``, the module imports only
the standard library. It reads float64 rows of F values, in native byte
order, from stdin until end of file and writes their CSV lines, numbered from
NODE, to stdout. Its ``repr`` is the interpreter's own, so the lines are the
bytes ``features_to_csv`` writes for those rows in the calling process.
"""

import sys


def csv_rows(rows, node: int = 0, prefix: str = "") -> str:
    """CSV lines for rows (lists of floats), numbered from node."""
    return "".join(
        ",".join([f"{prefix}{u}", *map(repr, row)]) + "\n" for u, row in enumerate(rows, start=node)
    )


def block_rows(f: int) -> int:
    """Rows per formatted block of a matrix with f columns: about 2**16 values."""
    return max(1, (1 << 16) // max(f, 1))


def _main(node: int, f: int) -> None:
    size = 8 * f * block_rows(f)
    while block := sys.stdin.buffer.read(size):
        rows = memoryview(block).cast("d", (len(block) // (8 * f), f)).tolist()
        sys.stdout.write(csv_rows(rows, node))
        node += len(rows)


if __name__ == "__main__":
    _main(int(sys.argv[1]), int(sys.argv[2]))
