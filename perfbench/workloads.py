"""Seeded input generators for the three benchmark workloads.

Every generator takes the seed and returns a list of :class:`Item`. An item
is one CLI analysis: the files it reads, its argument list, and what the
checker needs to know about it. The generators share no code with
``contextua``; the program under test only ever sees the written files.

Item sizes follow a fixed schedule per workload, so that every seed draws
the same mix of sizes and the seed only changes which observables, groups
and setting matrices fill it.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LETTERS = "IXZY"  # index = x_bit + 2 * z_bit


@dataclass(frozen=True)
class Item:
    """One analysis: files to write, CLI arguments, and check data.

    ``args`` holds CLI arguments in which ``{dir}`` stands for the item's
    directory. ``size`` is the scheduled size (observables, blocks or
    input bits) used to order and describe items. ``q_rows`` is the MBQC
    setting matrix for the closed-form truth-table check.
    """

    name: str
    files: dict[str, str]
    args: tuple[str, ...]
    fmt: str
    size: int
    q_rows: tuple[tuple[int, ...], ...] | None = field(default=None)

    def write(self, root: Path) -> list[str]:
        """Write the item's files under root and return the resolved args."""
        directory = root / self.name
        directory.mkdir(parents=True, exist_ok=True)
        for file_name, text in self.files.items():
            (directory / file_name).write_text(text, encoding="utf-8")
        return [arg.replace("{dir}", str(directory)) for arg in self.args]


# ---------------------------------------------------------------- paulis


def body(x: int, z: int, width: int) -> str:
    """Letter string of an unsigned Pauli, qubit 0 leftmost."""
    return "".join(LETTERS[((x >> k) & 1) | (((z >> k) & 1) << 1)] for k in range(width))


def all_paulis(width: int) -> list[str]:
    """Every nontrivial Pauli body on ``width`` qubits, sorted."""
    return sorted(
        body(x, z, width)
        for x in range(1 << width)
        for z in range(1 << width)
        if x or z
    )


def symplectic(label: str) -> tuple[int, int]:
    """(x bits, z bits) of a Pauli body, qubit 0 leftmost."""
    x = z = 0
    for k, letter in enumerate(label):
        index = LETTERS.index(letter)
        x |= (index & 1) << k
        z |= (index >> 1) << k
    return x, z


def _anticommute(a: tuple[int, int], b: tuple[int, int]) -> int:
    return ((a[0] & b[1]).bit_count() + (a[1] & b[0]).bit_count()) & 1


def _signed_product(
    p: tuple[int, int, int], q: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Product of i^e X^x Z^z operators, phase exponent kept mod 4."""
    phase = p[2] + q[2] + 2 * (p[1] & q[0]).bit_count()
    return p[0] ^ q[0], p[1] ^ q[1], phase % 4


def random_lagrangian(rng: random.Random, width: int) -> list[tuple[int, int]]:
    """Generators of a random maximal stabilizer group, as (x, z) pairs."""
    gens: list[tuple[int, int]] = []
    span: set[tuple[int, int]] = {(0, 0)}
    while len(gens) < width:
        vec = (rng.getrandbits(width), rng.getrandbits(width))
        if vec in span or any(_anticommute(vec, g) for g in gens):
            continue
        gens.append(vec)
        span |= {(x ^ vec[0], z ^ vec[1]) for x, z in span}
    return gens


def group_elements(
    gens: list[tuple[int, int]], sign_bits: list[int], width: int
) -> list[tuple[str, int]]:
    """Every nontrivial element of the group the signed generators generate.

    Returns (body, eigenvalue bit) pairs sorted by body: the group contains
    (-1)^bit times the body's Hermitian operator.
    """
    signed = [(x, z, (x & z).bit_count() + 2 * bit) for (x, z), bit in zip(gens, sign_bits)]
    elements = []
    for mask in range(1, 1 << len(signed)):
        product = (0, 0, 0)
        for k, gen in enumerate(signed):
            if (mask >> k) & 1:
                product = _signed_product(product, gen)
        x, z, phase = product
        elements.append((body(x, z, width), ((phase - (x & z).bit_count()) % 4) // 2))
    return sorted(elements)


def random_symplectic_map(
    rng: random.Random, width: int
) -> Callable[[tuple[int, int]], tuple[int, int]]:
    """A random Clifford relabelling of (x, z) Pauli vectors on ``width`` qubits.

    Composes random Hadamard, phase and CNOT gates, then permutes qubits.
    The map is linear and preserves commutation, so a relabelled set of
    observables has the same commutation graph, the same product relations
    and the same verdict as the original.
    """
    images = [(1 << k, 0) for k in range(width)] + [(0, 1 << k) for k in range(width)]
    for _ in range(8 * width):
        gate, a = rng.randrange(3), rng.randrange(width)
        b = (a + 1 + rng.randrange(width - 1)) % width
        moved = []
        for x, z in images:
            xa, za = (x >> a) & 1, (z >> a) & 1
            if gate == 0:  # Hadamard on a: swap x_a and z_a
                x, z = x ^ ((xa ^ za) << a), z ^ ((xa ^ za) << a)
            elif gate == 1:  # phase on a: z_a ^= x_a
                z ^= xa << a
            else:  # CNOT a -> b: x_b ^= x_a, z_a ^= z_b
                x ^= xa << b
                z ^= ((z >> b) & 1) << a
            moved.append((x, z))
        images = moved
    order = list(range(width))
    rng.shuffle(order)

    def permute(bits: int) -> int:
        return sum(((bits >> k) & 1) << order[k] for k in range(width))

    def relabel(vec: tuple[int, int]) -> tuple[int, int]:
        mx = mz = 0
        for k in range(width):
            for bit, (ix, iz) in (((vec[0] >> k) & 1, images[k]), ((vec[1] >> k) & 1, images[width + k])):
                if bit:
                    mx, mz = mx ^ ix, mz ^ iz
        return permute(mx), permute(mz)

    return relabel


# ---------------------------------------------------------------- gf(2)


def gf2_rank(rows: list[int]) -> int:
    """Rank of a list of int-packed GF(2) row vectors."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _random_full_rank(rng: random.Random, rows: int, cols: int, rank: int) -> list[int]:
    while True:
        mat = [rng.getrandbits(cols) for _ in range(rows)]
        if gf2_rank(mat) == rank:
            return mat


def ghz_setting_matrix(
    rng: random.Random, parties: int, inputs: int, inner_rank: int
) -> tuple[tuple[int, ...], ...]:
    """Q = A B with inner rank r; the last row is the parity of the others.

    Every column then has even weight, so each joint observable has an even
    number of Y factors and lies in the GHZ stabilizer group up to sign.
    """
    a = _random_full_rank(rng, parties - 1, inner_rank, inner_rank)
    b = _random_full_rank(rng, inner_rank, inputs, inner_rank)
    top = []
    for a_row in a:
        row = 0
        for k in range(inner_rank):
            if (a_row >> k) & 1:
                row ^= b[k]
        top.append(row)
    last = 0
    for row in top:
        last ^= row
    packed = top + [last]
    return tuple(
        tuple((row >> (inputs - 1 - j)) & 1 for j in range(inputs)) for row in packed
    )


# ---------------------------------------------------------------- workloads


def _fmt(index: int) -> str:
    return "json" if index % 2 else "text"


# Every schedule ends with PLATEAU copies of one item shape followed by two
# larger items. With two passes over 50 items, p90 then falls inside the
# plateau's 14 samples of equal expected latency instead of in the gap
# between two unlike items, so run-to-run noise moves it much less. The
# ks_cliques and mbqc_ghz schedules hold a second plateau with 21 items
# below it, so that p50 (samples 50 and 51 of 100) falls in the middle of
# its samples. Plateau items share one format (text) for the same reason.
PLATEAU = 7

# ks_cliques: loose observable sets. The 2- and 3-qubit sets are whole; the
# 4-qubit sets are subsets of the 255 Paulis with these sizes: many small
# ones, where closing contexts dominates, with the p50 plateau among them,
# then the p90 plateau and the largest, where clique search grows fastest.
# Each subset is drawn once (each plateau shares one); the seed picks a
# random Clifford relabelling per item, which keeps its commutation graph,
# so every seed sees different observables but the same amount of work.
KS_CLIQUE_SIZES = (
    tuple(20 + k // 2 for k in range(20))
    + (32,) * PLATEAU
    + tuple(33 + k // 2 for k in range(12))
    + (64,) * PLATEAU
    + (80, 84)
)


def ks_cliques(seed: int) -> list[Item]:
    rng = random.Random(f"ks_cliques/{seed}")
    four = all_paulis(4)
    sets = [(all_paulis(2), False), (all_paulis(3), False)]
    for index, size in enumerate(KS_CLIQUE_SIZES):
        plateau = KS_CLIQUE_SIZES.count(size) == PLATEAU
        subset = random.Random(f"ks_cliques/base/{'plateau' if plateau else index}").sample(four, size)
        relabel = random_symplectic_map(rng, 4)
        sets.append((sorted(body(*relabel(symplectic(b)), 4) for b in subset), plateau))
    items = []
    for index, (obs, plateau) in enumerate(sets):
        fmt = "text" if plateau else _fmt(index)
        items.append(
            Item(
                name=f"ks_cliques-{index:03d}",
                files={"obs.txt": "\n".join(obs) + "\n"},
                args=("analyze", "--obs", "{dir}/obs.txt", "--format", fmt),
                fmt=fmt,
                size=len(obs),
            )
        )
    return items


# ks_blocks: (qubits, block count) pairs. Each block is every nontrivial
# element of a random maximal stabilizer group; every other pair of items
# pins the signed elements of the first block's group, so pins and formats
# vary independently (the plateau is unpinned text). As for ks_cliques, the
# groups are drawn once and the seed picks a Clifford relabelling per item
# and the signs of the pinned state, neither of which changes the system's
# shape or the verdict.
KS_BLOCK_SCHEDULE = (
    tuple((4, b) for b in (5, 5, 6, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 23, 26,
                           30, 35, 40, 50, 60, 75))
    + tuple((5, b) for b in (5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 21))
    + tuple((6, b) for b in (5, 5, 6, 6, 7, 7, 8))
    + ((6, 10),) * PLATEAU
    + ((5, 45), (6, 25))
)


def ks_blocks(seed: int) -> list[Item]:
    rng = random.Random(f"ks_blocks/{seed}")
    items = []
    for index, (width, count) in enumerate(KS_BLOCK_SCHEDULE):
        plateau = KS_BLOCK_SCHEDULE.count((width, count)) == PLATEAU
        base = random.Random(f"ks_blocks/base/{'plateau' if plateau else index}")
        relabel = random_symplectic_map(rng, width)
        signs = [rng.getrandbits(1) for _ in range(width)]
        groups = [
            group_elements([relabel(g) for g in random_lagrangian(base, width)], signs, width)
            for _ in range(count)
        ]
        names = sorted({b for group in groups for b, _ in group})
        blocks = []
        for group in groups:
            blocks.append("context:")
            blocks.extend(b for b, _ in group)
        files = {
            "obs.txt": "\n".join(names) + "\n",
            "contexts.txt": "\n".join(blocks) + "\n",
        }
        fmt = "text" if plateau else _fmt(index)
        args = ["analyze", "--obs", "{dir}/obs.txt", "--contexts", "{dir}/contexts.txt"]
        if (index // 2) % 2 and not plateau:
            files["pins.txt"] = "".join(
                f"pin {b} {'-1' if bit else '+1'}\n" for b, bit in groups[0]
            )
            args += ["--pin", "{dir}/pins.txt"]
        items.append(
            Item(
                name=f"ks_blocks-{index:03d}",
                files=files,
                args=(*args, "--format", fmt),
                fmt=fmt,
                size=count,
            )
        )
    return items


# mbqc_ghz: (parties n, input bits m, inner rank r) triples: every (n, m)
# with m <= 7, a second round of the m = 4 and two cheap m = 5 pairs, the
# cheapest m = 8 pairs, the p50 plateau (n = 4, m = 7, r = 1, which the first
# round also holds once), the p90 plateau (n = m = 8, r = 2) and the two
# largest. The rank cycles through 1..min(n - 1, m) so low- and high-rank
# items occur.
_MBQC_PAIRS = (
    tuple((n, m) for m in range(4, 8) for n in range(4, 10))
    + tuple((n, 4) for n in range(4, 10))
    + ((4, 5), (5, 5), (4, 8), (5, 8))
)
MBQC_SCHEDULE = (
    tuple((n, m, 1 + k % min(n - 1, m)) for k, (n, m) in enumerate(_MBQC_PAIRS))
    + ((4, 7, 1),) * PLATEAU
    + ((8, 8, 2),) * PLATEAU
    + ((8, 9, 3), (9, 9, 4))
)


def mbqc_ghz(seed: int) -> list[Item]:
    rng = random.Random(f"mbqc_ghz/{seed}")
    items = []
    for index, (parties, inputs, rank) in enumerate(MBQC_SCHEDULE):
        q_rows = ghz_setting_matrix(rng, parties, inputs, rank)
        resource = ["+" + "X" * parties] + [
            "+" + "I" * k + "ZZ" + "I" * (parties - k - 2) for k in range(parties - 1)
        ]
        instance = {
            "parties": parties,
            "input_bits": inputs,
            "Q": [list(row) for row in q_rows],
            "observables": [["X"] * parties, ["Y"] * parties],
            "resource": resource,
        }
        fmt = "text" if MBQC_SCHEDULE.count((parties, inputs, rank)) >= PLATEAU else _fmt(index)
        items.append(
            Item(
                name=f"mbqc_ghz-{index:03d}",
                files={"instance.json": json.dumps(instance, indent=1) + "\n"},
                args=("mbqc", "--instance", "{dir}/instance.json", "report", "--format", fmt),
                fmt=fmt,
                size=inputs,
                q_rows=q_rows,
            )
        )
    return items


WORKLOADS = {"ks_cliques": ks_cliques, "ks_blocks": ks_blocks, "mbqc_ghz": mbqc_ghz}
