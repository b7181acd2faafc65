"""Seeded manifold inputs and the job list of each benchmark workload.

A seed draws Hodge numbers for fixed structural shapes: which Hodge entries
are nonzero, the total Betti number of each surface and the parity of every
class never change with the seed, so the cost of a job stays comparable
across seeds while its exact output does not.  The CY3 lives here and not
in the bundled catalog, whose list of names is pinned by the tests.

Each job is one argv for `symprod.cli.main`.  "{name}" stands for the path
of the generated manifold file of that name.
"""

import json
import random

CATALOG = ("point", "p1", "elliptic", "genus2", "p2", "k3", "abelian",
           "p1xp1")

# sha256 of the stdout of `verify-all --manifold <name>`, taken at the
# commit that added this benchmark.  The CLI promises byte-identical output.
VERIFY_ALL_SHA256 = {
    "point":
        "4e2923f6bbaeae772a21a1d0ed5c79ff92003a73ccfeca36e176f43a9feb408d",
    "p1": "00f81a34389a253739cc66740dcbc1fb56bf27e6cf41a05dfd93b5417a798373",
    "elliptic":
        "22c4cf383db840be6e4e418462dfd92294dc0cb0ff2aebbd9416e534b7c3e160",
    "genus2":
        "a0fbdf7a4f27814813b6d3b5c6af8bc7040ad5c81997db34a17444d6879354cf",
    "p2": "bbfb91444940414406073aeaddcf3235f4b7d84b9c758ba452134575a88d7217",
    "k3": "9867d046dee66a34434801872a8ee06f6f43de1aa66ae38d93765c2286a4875c",
    "abelian":
        "8ed7db915d9cade8f32af975037f8805836a5c9862706c3f4bad5a16823f2dbc",
    "p1xp1":
        "3c8369501ac30b3591062f99efc951a975ce05c841b54bbd615662836d90ec38",
}


def _surface(name, q, pg, b):
    """Hodge diamond of a surface with irregularity q, geometric genus pg
    and total Betti number b; h^{1,1} takes up the rest of b_2."""
    h11 = b - 2 - 4 * q - 2 * pg
    if h11 < 1:
        raise ValueError("no surface of this shape: h11 = %d" % h11)
    # "calabi_yau" makes the CLI derive the B-table by Serre duality; the
    # brute and closed B-series agree for any table, so every shape gets one.
    return {"name": name, "dim_c": 2, "calabi_yau": True,
            "hodge": [[1, q, pg], [q, h11, q], [pg, q, 1]]}


def _cy3(rng):
    h11 = rng.randint(1, 20)
    h21 = rng.randint(50, 150)
    return {"name": "cy3", "dim_c": 3, "calabi_yau": True,
            "hodge": [[1, 0, 0, 1], [0, h11, h21, 0], [0, h21, h11, 0],
                      [1, 0, 0, 1]]}


# name -> generator, drawn in this order from one rng per seed
SHAPES = {
    "k3_type": lambda rng: _surface("k3_type", 0, rng.randint(1, 5), 24),
    "abelian_type": lambda rng: _surface("abelian_type", 2,
                                         rng.randint(1, 2), 16),
    "odd_surface": lambda rng: _surface("odd_surface", 1,
                                        rng.randint(1, 6), 20),
    "p2_type": lambda rng: _surface("p2_type", 0, 0, 3),
    "cy3": _cy3,
}


def _both(kind, manifold, order):
    return ["series", kind, "--manifold", "{%s}" % manifold,
            "--order", str(order), "--mode", "both"]


def _fock(manifold, charge):
    return ["fock-verify", "--manifold", "{%s}" % manifold,
            "--max-charge", str(charge)]


# Why each workload: hodge_deep is dominated by the closed product and
# exponential expansions in `series`; sector_sweep by many short brute
# partition sums over `graded` symmetric powers; fock_charge by operator
# application in `fock`, with `series` and `graded` nearly idle.
WORKLOADS = {
    "hodge_deep": [
        _both("hodge_orb", "k3_type", 16),
        _both("hodge_orb", "abelian_type", 14),
        _both("chiy_orb", "k3_type", 16),
        _both("hodge_orb", "cy3", 10),
        _both("hodge_orb_B", "cy3", 10),
        _both("chiy_orb", "cy3", 16),
    ],
    "sector_sweep": [
        ["verify-all", "--manifold", name] for name in CATALOG
    ] + [
        _both("sign_orb", "odd_surface", 18),
        _both("euler_orb", "odd_surface", 20),
        _both("poincare_orb", "odd_surface", 16),
        _both("chiy_orb", "odd_surface", 14),
        _both("arith_orb", "odd_surface", 16),
        _both("euler_orb", "cy3", 20),
        _both("poincare_orb", "cy3", 16),
        _both("chiy_orb", "cy3", 12),
        _both("arith_orb", "cy3", 16),
    ],
    "fock_charge": [
        _fock("k3_type", 3),
        _fock("odd_surface", 3),
        _fock("p2_type", 5),
    ],
}


def generate(seed):
    """{shape name: manifold JSON object} for the seed, every shape."""
    rng = random.Random(seed)
    return {name: make(rng) for name, make in SHAPES.items()}


def write_inputs(seed, directory):
    """Write every seeded manifold into directory; {name: path}."""
    paths = {}
    for name, data in generate(seed).items():
        path = directory / (name + ".json")
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


def jobs(workload, paths):
    """The workload's argv lists with manifold placeholders filled in."""
    return [[arg.format(**paths) for arg in argv]
            for argv in WORKLOADS[workload]]


def pinned_digest(argv):
    """The pinned stdout sha256 of a catalog verify-all job, else None."""
    if argv[0] == "verify-all":
        return VERIFY_ALL_SHA256[argv[2]]
    return None
