"""Byte-identical outputs on a fixed set of instances.

Each digest is the sha256 of ``json.dumps(sol.to_json())`` for one cover,
recorded when the constructors still ran on ``ElementSet`` objects.  Any
change to the constructors' scan order or case analysis shows up here.
The oracle digests were recorded while the Hamilton and P2C searches were
still two separate functions; they pin the exact search's scan order on
graphs the constructors never hand to it.  The Hamilton path digests were
recorded while J(n,k) and QJ(n,A) still had separate Hamilton memos.
The ``gen`` digests were recorded while ``gen`` and ``to_dot`` still
deduplicated edges through sets of visited endpoint pairs.  The ``p2c`` and
``hamilton`` digests were recorded while the CLI still printed
``json.dumps(to_json())`` of the cover or path.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import permutations

import pytest

from johnson_p2c import (
    ElementSet,
    EndpointQuad,
    JohnsonGraph,
    QJGraph,
    check_hamilton,
    check_p2c,
    fig1_counterexample,
    hamilton_bruteforce,
    hamilton_johnson,
    hamilton_qj,
    p2c_bruteforce,
    p2c_johnson,
    p2c_qj,
)
from johnson_p2c.cli import run

# (graph, (u, v, x, y) as element lists, sha256 of the cover's JSON)
GOLDEN = [
    (("johnson", 10, 5),
     ([1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 2, 3, 4, 6], [5, 7, 8, 9, 10]),
     "eb510a53d8425bea171556b6aa1461ae27f575c07e022394448823ead8f5d38f"),
    (("johnson", 10, 5),
     ([1, 2, 4, 7, 8], [1, 5, 7, 8, 9], [3, 4, 7, 8, 9], [3, 6, 8, 9, 10]),
     "01a5a431872924cbe3af8226c12f67b5a06af103f0fc142bb53e58e42a01d07b"),
    (("johnson", 12, 6),
     ([1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12], [1, 2, 3, 4, 5, 7],
      [6, 8, 9, 10, 11, 12]),
     "76079c965ab67568db7c12d10b9e64187bdf5942c27bb39f6550107d8514acb9"),
    (("johnson", 12, 6),
     ([1, 3, 4, 6, 10, 12], [2, 5, 7, 10, 11, 12], [2, 4, 7, 8, 9, 10],
      [4, 5, 6, 7, 9, 12]),
     "992a3e945bf6f73da45fb8ce3b78fa78e4e79a10a081994933a50ce7b5fa2274"),
    (("johnson", 13, 4),
     ([1, 2, 3, 4], [10, 11, 12, 13], [1, 2, 3, 5], [9, 11, 12, 13]),
     "2dd14f5a54a8c598f55ece4050131f51794f460b99fe9a5b7ce6704be4751106"),
    (("johnson", 13, 4),
     ([3, 4, 7, 10], [5, 9, 12, 13], [1, 7, 11, 13], [1, 3, 8, 12]),
     "6e6a521906fc939b8f1e6a7e85759b276db72b3682fbb111d8b99e172a25f5d2"),
    # k > n/2: the cover goes through complement reduction.
    (("johnson", 11, 8),
     ([1, 2, 3, 4, 5, 6, 7, 8], [4, 5, 6, 7, 8, 9, 10, 11],
      [1, 2, 3, 4, 5, 6, 7, 9], [3, 5, 6, 7, 8, 9, 10, 11]),
     "1f29a00acc9319eecf0de1af14651e6c367dc4de92ce8cafe23ad2c7387c0a0a"),
    (("johnson", 11, 8),
     ([1, 2, 3, 5, 7, 9, 10, 11], [1, 2, 3, 4, 6, 7, 9, 11],
      [1, 2, 3, 4, 6, 7, 9, 10], [3, 4, 5, 7, 8, 9, 10, 11]),
     "3d8bad15c677ea700f30e3afd6c518caa83ee7c8e43ea8d312d010acd281579e"),
    (("qj", 7, (2, 3, 5)),
     ([1, 2], [3, 4, 5, 6, 7], [1, 3], [2, 4, 5, 6, 7]),
     "6bbec04b3b76c67e3c0d1429385e5ba7af950eda9a5973ce70c5c0c892b27ca4"),
    (("qj", 7, (2, 3, 5)),
     ([2, 3], [1, 2, 5], [2, 4, 5], [4, 5, 7]),
     "a09458e415f45de244f8788079f1fe6803dbdfa5ab0c1e506a1601e44b4fd42b"),
    # Apex level J(6,6): once as an endpoint, once absorbed into a path.
    (("qj", 6, (1, 3, 6)),
     ([1], [1, 2, 3, 4, 5, 6], [2], [4, 5, 6]),
     "0066ce7b453a6fcb26f88b3d80e76a0ad508833ccffc32016773b663f860ebcd"),
    (("qj", 6, (1, 3, 6)),
     ([2, 3, 6], [1, 3, 5], [4, 5, 6], [4]),
     "2ed8c4979660567a5b38fb8ff973e97df6105d7801c1859add46525b38ed4266"),
]


@pytest.mark.parametrize("graph, endpoints, digest", GOLDEN)
def test_cover_is_byte_identical(graph, endpoints, digest):
    kind, n, k_or_levels = graph
    if kind == "johnson":
        g, construct = JohnsonGraph(n, k_or_levels), p2c_johnson
    else:
        g, construct = QJGraph(n, k_or_levels), p2c_qj
    q = EndpointQuad(*(ElementSet.from_elements(w, n) for w in endpoints))
    sol = construct(g, q)
    assert check_p2c(g, q, sol).valid
    assert hashlib.sha256(json.dumps(sol.to_json()).encode()).hexdigest() == digest


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# (graph, (u, v, x, y) as element lists, sha256 of the oracle cover's JSON).
# J(6,3) has 20 vertices, more than any subproblem the constructors solve
# with the oracle.
ORACLE_GOLDEN = [
    (("johnson", 6, 3), ([1, 2, 3], [4, 5, 6], [1, 2, 4], [3, 5, 6]),
     "ee8e88b42ad7fb36a78380fcf3a84f894636f96af975bd64304e4b7006dea3d4"),
    (("johnson", 6, 3), ([1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]),
     "a66577d1e4b1e91b83a20cf98455907efe5d05c34ab00b6a3f5c8ce3972510ab"),
    (("johnson", 6, 3), ([1, 4, 6], [2, 3, 5], [3, 4, 6], [1, 2, 5]),
     "3b6ba1e32b8e8997ae7ed85f31390f462ecac305b694cd6b3a046e34febb1806"),
    (("johnson", 6, 3), ([2, 5, 6], [1, 3, 4], [1, 5, 6], [2, 3, 4]),
     "967fa9a89c26a6beebcfa091df098672178863ccebbebe540ad001255375cc63"),
    (("qj", 5, (1, 2)), ([1], [1, 2], [2], [3, 4]),
     "3d1a2c4f51c279396e10031ec798a6fe803ec1242fac196c6809966facd032a6"),
    (("qj", 5, (1, 2)), ([1, 2], [3, 5], [4], [2, 3]),
     "6dc07fffc190ba793f7409cd0ec22c3ec9cafed0b3254b4ce6e609bc9785b459"),
    (("qj", 5, (1, 2)), ([5], [1, 2], [1, 3], [4]),
     "f21bfbcde8889ca495dc2de0871b8100385e972c8e8003cf4f69e8f1226d3902"),
]


@pytest.mark.parametrize("graph, endpoints, digest", ORACLE_GOLDEN)
def test_oracle_cover_is_byte_identical(graph, endpoints, digest):
    kind, n, k_or_levels = graph
    g = JohnsonGraph(n, k_or_levels) if kind == "johnson" else QJGraph(n, k_or_levels)
    q = EndpointQuad(*(ElementSet.from_elements(w, n) for w in endpoints))
    sol = p2c_bruteforce(g, q)
    assert sol is not None and check_p2c(g, q, sol).valid
    assert _digest(sol.to_json()) == digest


def test_oracle_hamilton_paths_of_fig1_are_byte_identical():
    # All 56 ordered pairs, a missing path recorded as None.
    g, _ = fig1_counterexample()
    paths = []
    for s, t in permutations(range(8), 2):
        p = hamilton_bruteforce(g, s, t)
        paths.append(list(p) if p is not None else None)
    assert _digest(paths) == (
        "bddaa734b0c529fa6a253eea55b70ea5b4a2d8720f5f1da8eadcd117cc73b74c"
    )


# (n, levels, sha256 of the Hamilton paths' JSON over every ordered pair of
# distinct vertices).  Together with the J(n,k) pins below, these run every
# branch of both Hamilton builders.
HAMILTON_QJ_GOLDEN = [
    (4, (1, 2, 3, 4),
     "9cca03b6aa3d11d809f4b6c6c8a093e83ced801dbadaf4bd582e661a06d222d8"),
    (5, (1, 2, 5),
     "21d3598da709eb3d0d7673a053bbee52bae319f09e2cf6a58b9130e9d7e5fcfc"),
    (5, (2, 3),
     "6a6824ae474e318b8052a9181ba8ad201b8a6693d670e0e6dca082512687e86f"),
]


@pytest.mark.parametrize("n, levels, digest", HAMILTON_QJ_GOLDEN)
def test_hamilton_qj_paths_are_byte_identical(n, levels, digest):
    g = QJGraph(n, levels)
    paths = []
    for s, t in permutations(g.vertices(), 2):
        p = hamilton_qj(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        paths.append(p.to_json())
    assert _digest(paths) == digest


# (n, k, sha256 of the Hamilton paths' JSON on 20 endpoint pairs drawn with
# random.Random(0)).  J(9,6) goes through complement reduction.
HAMILTON_JOHNSON_GOLDEN = [
    (9, 4, "2a2ff0d2ed4ae3d6a0d8b37327086126a5e2d2956dca6f0cb8d917ee153bbc52"),
    (10, 5, "7b8b1accf6489eaba97619ff8f4c0743ba15196c2cff758056e0614c76a94880"),
    (9, 6, "a28855d66b995b7f0d02b5f508583a8e0e5dbf9c752a159c6064f435de5d21d3"),
]


@pytest.mark.parametrize("n, k, digest", HAMILTON_JOHNSON_GOLDEN)
def test_hamilton_johnson_paths_are_byte_identical(n, k, digest):
    g = JohnsonGraph(n, k)
    vertices = list(g.vertices())
    rng = random.Random(0)
    paths = []
    for _ in range(20):
        s, t = rng.sample(vertices, 2)
        p = hamilton_johnson(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        paths.append(p.to_json())
    assert _digest(paths) == digest


# (gen arguments, sha256 of the stdout of ``johnson-p2c gen``).
GEN_GOLDEN = [
    (["--graph", "qj", "--n", "5", "--levels", "1,2,4"],
     "44d7e6cd721a9fc69eeb5b6364bd139a89e3bd16243ee91d4019d126423cbedf"),
    (["--graph", "qj", "--n", "5", "--levels", "1,2,4", "--format", "dot"],
     "ee4e198b5799ba890e8b4dc58b85b813ad712ca70fc1f58ae291449998a71833"),
    (["--fixture", "fig1"],
     "82784fedeaba600e0eaad61a6c0d52c416ffe2ef5a82298060ee52915210e465"),
    (["--fixture", "fig1", "--format", "dot"],
     "5a15fee87fcac1543ddab21f7b130ee44242f91229c64619096ff189c1bbbb46"),
]


@pytest.mark.parametrize("argv, digest", GEN_GOLDEN)
def test_gen_output_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["gen", *argv]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def _quad_flags(*endpoints):
    """``--u 1,2 --v ...`` for four element lists."""
    flags = []
    for flag, w in zip("uvxy", endpoints):
        flags += [f"--{flag}", ",".join(map(str, w))]
    return flags


# (p2c, hamilton or sweep arguments, sha256 of the command's stdout).
CLI_GOLDEN = [
    (["p2c", "--graph", "johnson", "--n", "10", "--k", "5",
      *_quad_flags([1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 2, 3, 4, 6],
                   [5, 7, 8, 9, 10])],
     "6916676ae0af6b29a331c219592d07005d3838a3260742e02f470eb664a1b671"),
    # k > n/2: the cover goes through complement reduction.
    (["p2c", "--graph", "johnson", "--n", "11", "--k", "8",
      *_quad_flags([1, 2, 3, 4, 5, 6, 7, 8], [4, 5, 6, 7, 8, 9, 10, 11],
                   [1, 2, 3, 4, 5, 6, 7, 9], [3, 5, 6, 7, 8, 9, 10, 11])],
     "6deef1a8fcf1e422ba8b65f57f14fd295854577e65058fc9a7d535ab6672c757"),
    (["p2c", "--graph", "qj", "--n", "7", "--levels", "2,3,5",
      *_quad_flags([1, 2], [3, 4, 5, 6, 7], [1, 3], [2, 4, 5, 6, 7])],
     "a57da71cedf3961198bfa311ad09cff8ea2df338ef38460bd3d99f085c63b30c"),
    # Apex level J(6,6): once as an endpoint, once absorbed into a path.
    (["p2c", "--graph", "qj", "--n", "6", "--levels", "1,3,6",
      *_quad_flags([1], [1, 2, 3, 4, 5, 6], [2], [4, 5, 6])],
     "8e09c2fdbf2b3054b0cc6735e35bb4e40e87b5e306635aae4be7e9eca0c0acc5"),
    (["p2c", "--graph", "qj", "--n", "6", "--levels", "1,3,6",
      *_quad_flags([2, 3, 6], [1, 3, 5], [4, 5, 6], [4])],
     "30418686c661a3530ff9391c410f5f45b3b29f8061a7eca066877bb86971ba7f"),
    (["p2c", "--graph", "complete", "--n", "9",
      *_quad_flags([1], [9], [2], [5])],
     "00b33c2bc9302678ce965fb0a05bdaca25142935e8a8801bf746dc56796e99ec"),
    (["hamilton", "--graph", "johnson", "--n", "10", "--k", "5",
      "--s", "1,2,3,4,5", "--t", "6,7,8,9,10"],
     "1b0f32899ea189cf3b9d22a27270e9436f2af7a5247661f9e8444673616c5db3"),
    (["hamilton", "--graph", "johnson", "--n", "11", "--k", "8",
      "--s", "1,2,3,4,5,6,7,8", "--t", "3,5,6,7,8,9,10,11"],
     "b9688471ed688f7dcf46cb4fd72175714495c6c6bcac1115eabc9a6fd983fdee"),
    (["hamilton", "--graph", "qj", "--n", "7", "--levels", "2,3,5",
      "--s", "1,2", "--t", "3,4,5,6,7"],
     "d16fd5f90b55360733cc82dfc404de1c6758c8cc6f211758c1a1e195b0dc5805"),
    (["hamilton", "--graph", "qj", "--n", "6", "--levels", "1,3,6",
      "--s", "1", "--t", "1,2,3,4,5,6"],
     "55f5556a2927248ea00f5c0a61d4687e67bfed9b035c6627d399c36000894b12"),
    (["hamilton", "--graph", "qj", "--n", "6", "--levels", "1,3,6",
      "--s", "2,3,6", "--t", "4"],
     "44921b638b200f8712fda93196ab2640587ae60d9859720ef3696bf060f595ae"),
    (["hamilton", "--fixture", "fig1", "--s", "000", "--t", "011"],
     "db424ba475ee3b96eaec54f7fabc5fc1814ccf04c3c28e1d87fe470f271ca297"),
    (["hamilton", "--fixture", "fig1", "--s", "000", "--t", "111"],
     "aab0264743ea59b180b4bf690df9e17b62d40b08bf4c3d117a53066394ab186f"),
    # The DOT form of a cover, and covers certified step by step with
    # --debug-check; recorded while p2c still built and checked ElementSets.
    (["p2c", "--graph", "johnson", "--n", "7", "--k", "3", "--format", "dot",
      *_quad_flags([1, 2, 3], [5, 6, 7], [1, 2, 4], [3, 6, 7])],
     "c344e2e27d1756891b6cb1380f2d5efa85dd856c582d3effb1c1479af110de31"),
    (["p2c", "--graph", "qj", "--n", "5", "--levels", "1,2,5", "--format", "dot",
      *_quad_flags([1], [1, 2], [2], [3, 4])],
     "e47d3f06941cc8bf1e8a348e37f4801846a9bb3972e7149190562e728a39eb24"),
    (["p2c", "--graph", "johnson", "--n", "10", "--k", "5", "--debug-check",
      *_quad_flags([1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [1, 2, 3, 4, 6],
                   [5, 7, 8, 9, 10])],
     "6916676ae0af6b29a331c219592d07005d3838a3260742e02f470eb664a1b671"),
    (["p2c", "--graph", "qj", "--n", "6", "--levels", "1,3,6", "--debug-check",
      *_quad_flags([1], [1, 2, 3, 4, 5, 6], [2], [4, 5, 6])],
     "8e09c2fdbf2b3054b0cc6735e35bb4e40e87b5e306635aae4be7e9eca0c0acc5"),
    # Sweeps of complete graphs, recorded while they ran the complete-graph
    # constructor rather than the Johnson one, whose k = 1 case it is.
    (["sweep", "--graph", "complete", "--n", "4"],
     "32ca6629760e72878a041d35a728f5416219ea0f9de65fcbe6fc12b86899e031"),
    (["sweep", "--graph", "complete", "--n", "4", "--mode", "sampled",
      "--count", "200", "--seed", "5"],
     "25f85b420dec563dcd68a2b31e6a249650ef9965220f160ccf8210f1121fca5b"),
    (["sweep", "--graph", "complete", "--n", "5"],
     "0ec29e11e09b7cc0c5e7e457f560ed6a51bcc4495887638cb8ef81deaa4accb3"),
    (["sweep", "--graph", "complete", "--n", "5", "--mode", "sampled",
      "--count", "200", "--seed", "5"],
     "a5a10448591589d069f66986274c473f59925253534b299cfc8e543f37c448eb"),
    (["sweep", "--graph", "complete", "--n", "6"],
     "4e1f220bdadfc5847e1b7fb1c5bd46540e987df1271ada4496311af54387283b"),
    (["sweep", "--graph", "complete", "--n", "6", "--mode", "sampled",
      "--count", "200", "--seed", "5"],
     "cf934c4b0394c60cd2646427c0779ca06f76d5c5bb5c6ec3db025d9fcadc3503"),
    (["sweep", "--graph", "complete", "--n", "7"],
     "fe089133f6e98f8bdceb710615ec1b34e0de00a92f88558d986e4179e5498300"),
    (["sweep", "--graph", "complete", "--n", "7", "--mode", "sampled",
      "--count", "200", "--seed", "5"],
     "1a0f5f0ce05a98409112cb4d3e08f9bc79bbeb0040c9e0e3623f4fdcb5f20e5e"),
    (["sweep", "--graph", "complete", "--n", "8"],
     "946acc2035a04f913953d45d15e3cb34cae3f6ea48e10573265a0a38531c020f"),
    (["sweep", "--graph", "complete", "--n", "8", "--mode", "sampled",
      "--count", "200", "--seed", "5"],
     "d1a0a26a4e7b52976a0b801ffbf365f240404eb2e31b8915641665744dc39855"),
]


@pytest.mark.parametrize("argv, digest", CLI_GOLDEN)
def test_cli_cover_output_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


_J52 = ["--graph", "johnson", "--n", "5", "--k", "2"]
_QJ6 = ["--graph", "qj", "--n", "6", "--levels", "1,3,6"]

# (arguments, exit code, stderr) of endpoints the CLI refuses: a repeated
# vertex and a vertex of a cardinality the graph lacks.  Recorded while p2c
# and hamilton still validated ElementSets.
CLI_REFUSALS = [
    (["p2c", *_J52, *_quad_flags([1, 2], [1, 2], [1, 3], [2, 5])], 1,
     "BadQuad: endpoints not pairwise distinct: ({1,2}, {1,2}, {1,3}, {2,5})\n"),
    (["p2c", *_J52, *_quad_flags([1, 2], [1, 2, 3], [1, 3], [2, 5])], 1,
     "BadQuad: {1,2,3} is not a vertex of the host graph\n"),
    (["p2c", *_QJ6, *_quad_flags([1], [1], [2], [4, 5, 6])], 1,
     "BadQuad: endpoints not pairwise distinct: ({1}, {1}, {2}, {4,5,6})\n"),
    (["p2c", *_QJ6, *_quad_flags([1], [1, 2], [2], [4, 5, 6])], 1,
     "BadQuad: {1,2} is not a vertex of the host graph\n"),
    (["p2c", "--graph", "complete", "--n", "5", *_quad_flags([1], [1], [2], [3])], 1,
     "BadQuad: endpoints not pairwise distinct: ({1}, {1}, {2}, {3})\n"),
    (["p2c", "--graph", "complete", "--n", "5", *_quad_flags([1, 2], [1], [2], [3])], 1,
     "BadQuad: {1,2} is not among the given vertices\n"),
    (["hamilton", *_J52, "--s", "1,2", "--t", "1,2"], 1,
     "EqualEndpoints: endpoints coincide: {1,2}\n"),
    (["hamilton", *_J52, "--s", "1,2", "--t", "1,2,3"], 1,
     "NotAVertex: {1,2} or {1,2,3} not a vertex of J(5,2)\n"),
    (["hamilton", *_QJ6, "--s", "1", "--t", "1"], 1,
     "EqualEndpoints: endpoints coincide: {1}\n"),
    (["hamilton", *_QJ6, "--s", "1,2", "--t", "1"], 1,
     "NotAVertex: {1,2} or {1} not a vertex of QJ(6,{1,3,6})\n"),
]


@pytest.mark.parametrize("argv, code, err", CLI_REFUSALS)
def test_cli_refusal_is_byte_identical(argv, code, err):
    out, errs = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
        assert run(argv) == code
    assert out.getvalue() == ""
    assert errs.getvalue() == err
