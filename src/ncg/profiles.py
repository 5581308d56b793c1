"""Plain-text profile format, version ``ncg v1``.

::

    ncg v1
    n 3
    alpha 19/2
    buy 0 1
    buy 2 1

Each ``buy u v`` line means agent u pays for the link to v; ``buy u v``
together with ``buy v u`` encodes a double purchase, while repeating the
exact same line is an error. Serialization is canonical (buyers ascending,
targets ascending) so parse and serialize round-trip bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadHeader, BadRational, BadVertexIndex, DuplicateBuy
from .game import GameConfig, StrategyProfile

HEADER = "ncg v1"


def parse_profile(text: str) -> tuple[GameConfig, StrategyProfile]:
    lines = [(i + 1, raw.strip()) for i, raw in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines or lines[0][1] != HEADER:
        raise BadHeader(f"expected {HEADER!r} on the first line",
                        lines[0][0] if lines else 1)
    if len(lines) < 3:
        raise BadHeader("expected 'n <int>' and 'alpha <rational>' lines",
                        lines[-1][0])

    no, n_line = lines[1]
    parts = n_line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise BadHeader(f"expected 'n <int>', got {n_line!r}", no)
    try:
        n = int(parts[1])
    except ValueError:
        raise BadHeader(f"agent count is not an integer: {parts[1]!r}", no) from None
    if n < 1:
        raise BadHeader(f"agent count must be >= 1, got {n}", no)

    no, a_line = lines[2]
    parts = a_line.split()
    if len(parts) != 2 or parts[0] != "alpha":
        raise BadHeader(f"expected 'alpha <rational>', got {a_line!r}", no)
    try:
        alpha = Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise BadRational(f"unparseable rational {parts[1]!r}", no) from None
    try:
        config = GameConfig(n, alpha)  # bounds n before buys is allocated
    except ValueError as exc:  # n is a positive int here, so alpha is out of range
        raise BadRational(str(exc), no) from None

    buys: list[set] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for no, line in lines[3:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "buy":
            raise BadHeader(f"expected 'buy <u> <v>', got {line!r}", no)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise BadVertexIndex(f"non-integer vertex in {line!r}", no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertexIndex(f"vertex out of range in {line!r} (n={n})", no)
        if u == v:
            raise BadVertexIndex(f"self-loop purchase in {line!r}", no)
        if (u, v) in seen:
            raise DuplicateBuy(f"duplicate directive {line!r}", no)
        seen.add((u, v))
        buys[u].add(v)
    return config, StrategyProfile.from_sets(buys)


def serialize_profile(config: GameConfig, profile: StrategyProfile) -> str:
    out = [HEADER, f"n {config.n}", f"alpha {config.alpha}"]
    for u, targets in enumerate(profile.buys):
        for v in targets:
            out.append(f"buy {u} {v}")
    return "\n".join(out) + "\n"


def load_profile(path) -> tuple[GameConfig, StrategyProfile]:
    """Parse the file at ``path``, UTF-8 text; a leading byte-order mark is
    skipped, as editors on some platforms write one."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_profile(fh.read())
