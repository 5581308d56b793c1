"""Golden output: every CLI mode once on small fixed inputs, pinned by the
SHA-256 of its CSV (and of the audit's ``--witnesses`` text), so a
refactor that changes any output byte fails here.

The digests were recorded before the distance queries were folded into
one BFS kernel, from the six separate BFS loops they replaced. Regenerate
them only for an intended output change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import io
import os
import random
from contextlib import redirect_stdout

from ncg.cli import main


def _profile_text(n, alpha, edges, rng):
    buys = [set() for _ in range(n)]
    for u, v in sorted(edges):
        if rng.random() < 0.5:
            buys[u].add(v)
        else:
            buys[v].add(u)
    lines = ["ncg v1", f"n {n}", f"alpha {alpha}"]
    lines += [f"buy {u} {v}" for u in range(n) for v in sorted(buys[u])]
    return "\n".join(lines) + "\n"


def _random_connected(rng, vertices, p):
    """Random recursive tree on ``vertices`` plus chords with probability p."""
    edges = set()
    for i in range(1, len(vertices)):
        u, v = vertices[i], vertices[int(rng.random() * i)]
        edges.add((min(u, v), max(u, v)))
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if rng.random() < p:
                edges.add((min(u, v), max(u, v)))
    return edges


def _audit_text(alpha, seed=5, n=30, core=18, chain=3):
    """A random core with chains of ``chain`` vertices hung off it; every
    other chain closes into a cycle through its anchor."""
    rng = random.Random(seed)
    edges = _random_connected(rng, list(range(core)), 0.15)
    for k, start in enumerate(range(core, n, chain)):
        anchor = int(rng.random() * core)
        path = [anchor] + list(range(start, min(start + chain, n)))
        if k % 2 == 0:
            path.append(anchor)
        edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
    return _profile_text(n, alpha, edges, rng)


def _inputs():
    rng = random.Random(11)
    return {
        "rand8.ncg": _profile_text(8, 1, _random_connected(rng, list(range(8)), 0.2), rng),
        "star8.ncg": _profile_text(8, 3, {(0, v) for v in range(1, 8)}, rng),
        "audit-a3.ncg": _audit_text(3),
        "audit-a25.ncg": _audit_text(25),
        "rand12.ncg": _profile_text(12, 1, _random_connected(rng, list(range(12)), 0.15), rng),
    }


JOBS = {
    "enumerate": ["enumerate", "--n", "4", "--alpha", "2"],
    "search": ["search", "--n", "6", "--alpha", "1", "--iters", "20", "--seed", "3"],
    "dynamics": ["dynamics", "--n", "6", "--alpha", "1/2", "--schedule", "rand",
                 "--seed", "5", "--budget", "40"],
    "dynamics-in": ["dynamics", "--in", "rand8.ncg"],
    "verify": ["verify", "--in", "rand8.ncg"],
    "verify-star": ["verify", "--in", "star8.ncg"],
    "best-response": ["best-response", "--in", "rand8.ncg", "--agent", "2"],
    "poa": ["poa", "--n", "4", "--alpha", "2"],
    "optimum": ["optimum", "--n", "5", "--alpha", "1/3"],
    # The largest n that enumeration and the brute-force optimum accept.
    "enumerate-n6": ["enumerate", "--n", "6", "--alpha", "1/2"],
    "poa-n6": ["poa", "--n", "6", "--alpha", "2"],
    "audit-a3": ["audit", "--in", "audit-a3.ncg", "--witnesses"],
    "audit-a25": ["audit", "--in", "audit-a25.ncg", "--witnesses"],
    # The search descent and the dynamics state updates at a larger n.
    "search-n10": ["search", "--n", "10", "--alpha", "1", "--iters", "60", "--seed", "4"],
    "dynamics-n12": ["dynamics", "--in", "rand12.ncg", "--schedule", "rand",
                     "--seed", "2", "--budget", "80"],
}

GOLDEN = {
    "audit-a25.csv": "f645ace01c4c47dca6086cfbf42bac93b5ececeb35535c559aee7c33d9f66204",
    "audit-a25.stdout": "52775be60335d10f2c26744ee25161b46eb6edebd68b82ac9db84fa61e52f20b",
    "audit-a3.csv": "e0a52bf9641d41fd30dc46191cbc15334ddb6600bec85012053d3740ad51f8c8",
    "audit-a3.stdout": "16be4d9c567a5ccf945036dd65fe0df125993f8e264c856dec766a3407260cab",
    "best-response.csv": "6457b6b12ef6fb23d9547e065e69809b96fbc3b4a0ce8fb609788e9d8674c67b",
    "best-response.stdout": "454e175d90f3e4e60f03cfe6c5a66a4d341d71995e55266a659f06f23bf6a20a",
    "dynamics-in.csv": "faf375eeb0293c0ad8ff463d6a098f2ffde3016405a59606c20b972b13c12689",
    "dynamics-in.stdout": "c0347ca9430c9500f5163223cfb6136a1f0274fb0970e86e11cc0516d1767deb",
    "dynamics-n12.csv": "53d925033adc4aa6560d9014218485b85702d35fe93235a3d61b1cdca582a2f2",
    "dynamics-n12.stdout": "645d4c6f272cb472eb467c819cd791b47702301da68f2806f8ed3b457b6e31be",
    "dynamics.csv": "e4272a2225b2e2b12711b48bae7b02045fc0347d3aae742eb5cc798e80d1dcf4",
    "dynamics.stdout": "97711a858f2093537c64c6009e4e04c9703f414f84fb2cd30d30eb3170d140f1",
    "enumerate-n6.csv": "db72a42f864459284126129ebce97a37a002ae389d1169f8b0b03cf73b7837fb",
    "enumerate-n6.stdout": "309ad834b2dd18fffd0ac97394210a14cd4cfbdbd0b6090954d32b8a38963354",
    "enumerate.csv": "40c773f05a2170a459f983d181eb95714bae0279e03e5e205ac9bb7dad5afa74",
    "enumerate.stdout": "eb0105687fabf9e68c887c8bdecb5568cef790105ee5135bff64e03053fc6b76",
    "optimum.csv": "c2bf9641052b8c9085132d0c73edd6e226a284ae269b8fe4adf7b35f3a27c371",
    "optimum.stdout": "d1138e0e83310395c7a18f2672252e8e7f68f7c262420999451e41cd72aa9a7a",
    "poa-n6.csv": "5675f19960d2fdba97094de1147cd9ad001ab5352fdf145f9e4f28dcb1bb2e41",
    "poa-n6.stdout": "6b2327bb9347cb509cbe6d81e4313208c2918e5947be3afd1db644d2cc002b43",
    "poa.csv": "824b91f8327be984433f8c182d3722988110195f166d1f411ed96db3dc682a96",
    "poa.stdout": "5141ee14820651f8fddbf3d8fa43e02a27238cb4390c11a73e73c45d119c9783",
    "search-n10.csv": "86539c92091ac3a12ee67e57f5d3451f0f46697243d70b36146720314bcd0f62",
    "search-n10.stdout": "91748e6da665b126db5d0e7cd6569912f7f46e00a0ca2706bef7d46a4d759a6d",
    "search.csv": "509c5824153ce35c14d6d54afeb40587fae6c7644d547e192371badc61d7e06f",
    "search.stdout": "7cc5788456f8248cf9dafcf4191f4472d8728ef8b430f8ba9951e2a2bcfd9ab3",
    "verify-star.csv": "cf6a5711f7cc601a7412b60622fceda6edfd8544684c972281f6aa205427cde5",
    "verify-star.stdout": "3bc88d0a41c2c4145e50d79b1d52c36b08ce9a786299c9319c936aeaedbf9b55",
    "verify.csv": "fea8112bf566eb13bcc6d843cbcadafba06983da73ac57a852d0d06e5ff883f7",
    "verify.stdout": "fcc58438b5994f033b4ce678f76711ccfa12cd3bd799af31a93eb2893dcc97a9",
}


def _digests(directory) -> dict:
    """Run every job in ``directory``; SHA-256 of each CSV and each stdout."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, text in _inputs().items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        out = {}
        for job, argv in JOBS.items():
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(argv + ["--out", f"{job}.csv"]) == 0, job
            with open(f"{job}.csv", "rb") as fh:
                out[f"{job}.csv"] = hashlib.sha256(fh.read()).hexdigest()
            out[f"{job}.stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        return out
    finally:
        os.chdir(here)


def test_cli_outputs_match_golden_digests(tmp_path):
    assert _digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        for key, value in sorted(_digests(d).items()):
            print(f'    "{key}": "{value}",')
