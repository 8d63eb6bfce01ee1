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
``json.dumps(to_json())`` of the cover or path.  The pins of graphs above
``MEMO_VERTICES`` (1,000 vertices) were recorded while a complemented or
embedded half that large was still built in its own masks and then copied
with an XOR.
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
from johnson_p2c.hamilton import hamilton_masks
from johnson_p2c.verify import builder_of, host_of

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
    # Above MEMO_VERTICES: J(14,7) has 3,432 vertices, and its halves
    # J(13,7) and J(13,6) are built, not memoized; J(15,9) (5,005) also
    # goes through complement reduction.  Quads drawn with random.Random(1).
    (("johnson", 14, 7),
     ([2, 3, 4, 5, 7, 11, 12], [2, 3, 6, 7, 10, 12, 14],
      [2, 3, 9, 10, 12, 13, 14], [1, 3, 6, 7, 12, 13, 14]),
     "c7b28e12bf18301537e65b86420346cf53e16f2afab451d3a3fcc8e92e5f7eca"),
    (("johnson", 15, 9),
     ([1, 3, 5, 6, 7, 10, 11, 12, 14], [3, 5, 7, 8, 9, 12, 13, 14, 15],
      [1, 3, 4, 5, 6, 8, 11, 12, 13], [2, 3, 4, 5, 6, 7, 10, 11, 15]),
     "d79b2790e7c6f35fbd1c5ae8fc38ec2730b5b1860696a80dbc933af005edd50b"),
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


# One sha256 per graph over ``repr`` of the mask paths that the graph's own
# constructor (``builder_of``) returns for 200 quads, each drawn by
# ``random.Random(11).sample`` from the vertex masks in ``vertices()`` order.
# Recorded while the Johnson split still found its bridge vertices by
# scanning generators.  Keys: (n, k) of J(n,k) with 4 <= n <= 10, and the
# level sets A of QJ(7,A) with at least 4 vertices.
SWEEP_JOHNSON_DIGESTS = {
    (4, 1): "c616c4c18bf97395e1484849c046e2c33e877615102318ccd9943911e1f9be92",
    (4, 2): "bf8920ddf62d3646c4d3e4cd8f8ebd8483c0ad4445b60025ded5e0830b6b241d",
    (4, 3): "f2de32778241d92b8f23e31f428525430b9f3d8c5d5d36f32d39e6582ade64b5",
    (5, 1): "ce0478e43fe704a0f4f25b39e1a862b5488583ef71742490f3053eac80b1bbb2",
    (5, 2): "f9a349cfdfb9a04763e4ecf7efcf30da9d2497a4f33e6dad8e866001c960a1c7",
    (5, 3): "12d0f519049ae4a6bfd7da96e69fa4d2abbe8633cd0eee9a87423cfb33fdcca7",
    (5, 4): "0f5b3d1df1844c0a2db650af882b724cc41b8eb49a8c5c8bffb43943785fc120",
    (6, 1): "c332b1d9b37ffc8887acddb9a50803d8b5bb641aecd5dc6e022a105f80e3889d",
    (6, 2): "faf676a4c3347e1dd2dc666e6307f6e59d28bc91f92e69d1fa0424b0d9ab713c",
    (6, 3): "7cb7b63abb311abcc079d01f225c90b5b6b0a187d856ca081fe3d1242e9247e5",
    (6, 4): "d1795453b255efcd32be42239d4dd8e82b59506c6c1e097dae04f8aab47a941b",
    (6, 5): "2fbe42907382a196c17184d5f8fa6bbe6efa5ca1ea105e58767b88c75c0dcb00",
    (7, 1): "d4d71fca60a46dec4701a109a655e140d58c0528a08ccda24b62541ce083440a",
    (7, 2): "5ece0ab1a6dcf15b968b9e859a2ab065f97a883fb1be901b4feddf557f4997ef",
    (7, 3): "24ca7612e366830459fc9fde6573df14cb8aa9ddaad8b1c0d10e935ce82a4123",
    (7, 4): "d4e9e3b3b29177c54d0a964eb1d259eaa1adf8c2ec8b43b6bccfc4c268f64149",
    (7, 5): "23ba7411f4ab706129b5df658b1c6b0f31072cab97e901cb216e42b18981304d",
    (7, 6): "7d8854f155441732fce18eb7b1f8fedc992f4accd4a95dda26230a812c0c6daf",
    (8, 1): "5fa62718d627e06dbf0c2891dfca94fa58dbb97b19b298bf38be1acc1d18e5fd",
    (8, 2): "470c58791af6297da4029370b734e8d2a2683f628443a273a1dfda495cbbf982",
    (8, 3): "2e2c4289c5d6c7cd1620ca92a656751beb20721cfe4c218e06b8537bbaedd2a4",
    (8, 4): "0fb3c0f2d6ce39a791a65caa0f533227cb8098aaaf278dcc6567fe0c1556e909",
    (8, 5): "b4264c5bd26876ba755de96cec2ed70fad350ac5051ab29f438069b52ec98f1a",
    (8, 6): "446584fd273c93b2b3c15618ff85a130b5e227e6bec77dbe7b1dbd08e815a007",
    (8, 7): "0429c02721bfed2c8e1ec675619f2dbf6d0fb37f05c4e6933ada64a5ee26ebdf",
    (9, 1): "d105e6c9b6da59bb365d97917cb887dea83cb5e453a266c868e309447fe4ca17",
    (9, 2): "1ccd0ad80eb126b503518f298b6ef527c8a4bd907bc2ba8b4ef9c28d15d6985e",
    (9, 3): "414cc65b886a15ee744499a8b2f564d6017d7ffbee9d284ac86420e762fc5321",
    (9, 4): "e5c569c07de228553d9a6c04c671c882fa7dc678ffa735fa8930cd87d42f2757",
    (9, 5): "4a6a86fe991a8bf1e84803e59ec58d1e3e6317d4d5538590281acb637f5faefd",
    (9, 6): "0d9124bd9ec84be1ecc54c58619d36072938a509fda3a581ced27a43600a08f4",
    (9, 7): "229ae86e75482317c2546ca42951454f5824cf3fa88e400d98826825642faab8",
    (9, 8): "a970030a55428ca32a50eb99a871064eaa126cf4be9f7d73c6011f9b8b313593",
    (10, 1): "f9e096e340b2a1287d596cefa2687fd2bc0bf5da05eefd1b716d4d48369b6d86",
    (10, 2): "fe4f43f46a1d23a91d968b7dd6abf9dd6d0bb4e4bff8639dce1cc7b664c0e412",
    (10, 3): "88e9690569834c22d3eeeffd7612837100c1e0bc0ac1c59f3a2f22992f08a5a1",
    (10, 4): "a84fa84cd5129be71c1f2dce357925982bdcf2d2b71ef6799b84f131c347252c",
    (10, 5): "35496fd468f9c0d2e0cdca57752b6c552615104fa0875573617e8d1872701f58",
    (10, 6): "e1b828af13442bd8f808d5669ad4fb8f3cb2873e33be2c9bf1872991c85cb4f0",
    (10, 7): "e8651a03a380014f40a59f9cf5149b20e9c445b7fa8bc8dfd33d08306e8dbef0",
    (10, 8): "c6cbfaed49344db0bf85ebe1612c9ea6232b833d1ca39e7c8952fed84d83ae71",
    (10, 9): "067c024a56dcf70be4f8e9d1235ec80378abf82bf5fc3843ad73923b7752521b",
}
SWEEP_QJ7_DIGESTS = {
    (1,): "d4d71fca60a46dec4701a109a655e140d58c0528a08ccda24b62541ce083440a",
    (2,): "5ece0ab1a6dcf15b968b9e859a2ab065f97a883fb1be901b4feddf557f4997ef",
    (3,): "24ca7612e366830459fc9fde6573df14cb8aa9ddaad8b1c0d10e935ce82a4123",
    (4,): "d4e9e3b3b29177c54d0a964eb1d259eaa1adf8c2ec8b43b6bccfc4c268f64149",
    (5,): "23ba7411f4ab706129b5df658b1c6b0f31072cab97e901cb216e42b18981304d",
    (6,): "7d8854f155441732fce18eb7b1f8fedc992f4accd4a95dda26230a812c0c6daf",
    (1, 2): "0cd4e25ee7ef7f9285c699f53ee3ea8b42f619572888fdf55a079fdf202c696a",
    (1, 3): "e5186bd90322295a1da7cf9e8cb5f71e442235f46c94006b17f088a63ad0c97b",
    (1, 4): "f060abfcec080e737a4ed1c2e639a2645747390a1b90038950e67dd46b6551c1",
    (1, 5): "2851388927fc63ac5f43a11c8dbf19932bc68b29d447e260205ce20a464d3b92",
    (1, 6): "e0bb63a1cfad73701a37aa51da423cde9d943be5240aa140ab93a629addcfc68",
    (1, 7): "148082eb25231de296704fd2c44bc011dcdb89fee1d9c25df4da9532bccb7a0e",
    (2, 3): "79a8e7f615be0037ea3470f3f30e7fe68e166db3834004d29726c5c19e37e8a8",
    (2, 4): "88a1d4bc4887a2637a00d0c726862436fce94a889c4e77a4f48109687ad63184",
    (2, 5): "493f9c4a003a16c4768eb354cbf94a8ae5357162373303db7d5639bb44957858",
    (2, 6): "dfe9b88daff5a653cbaf3fe167475d3874b6c47a4f7b4f400f5b304c85b59e43",
    (2, 7): "b9eadd9ce302a3ca3b711a24bbce1f249fe3dc0b474596c20cbcd8e5590621ec",
    (3, 4): "b72fe365116f2f3f1bae6820e17d7901b7c0b7aed33213a4ddea7e2a79828994",
    (3, 5): "ff8b00a70673fd7dd8510cc278abf797f57fef4edea596c29fd1c50970fcf1c6",
    (3, 6): "e3c9dc0a0f733913e06aeeca86245a7aedaedd5ed4a6c37612668baf0d922eef",
    (3, 7): "8decab78c1905233c1c757b2360e55371c5e5eb2bd7ce0955e8f7776b2e053b6",
    (4, 5): "967e8353897354e7a8454561c12ca4c07345ccd33a86edc1d872a8594d2b889b",
    (4, 6): "8db6092cc80802a999a2fd6b25fba6bbecf1557d8c8fa0b0b86affdb236fca3c",
    (4, 7): "7372ad42ff2436c45591b25ab27a35696256c2ca439302b2659c76f2e9aea86d",
    (5, 6): "d89e630a561a4bdc00bc8ff4ca18ebd8b326dec64c99a6297c8653e64f60e549",
    (5, 7): "7892922ac16e8bde9f6355267dbd884d0fbcd1930432631ffd37195f432a5963",
    (6, 7): "8e3cf3020e5ba2562b375949c6d38c65e8820e6db3ac130670bbf56295a4a0b6",
    (1, 2, 3): "a4aaaa986e6ae4d1da6f3c1ad3fa9a0d2bedcf442d522400b3f77fe87d7cc6b9",
    (1, 2, 4): "ed5ac2360c9d7250489d83e7086404dd13d30f377026066c2dc50d8e446258aa",
    (1, 2, 5): "1e907c24aef1a46aabb22c299bdb231282f10cd638c0ece56f8199f423dcef47",
    (1, 2, 6): "a2a6ce870d604aef3dab84d9b225e2e2a77b1ae4a5a7f244119aafe8a5d840a1",
    (1, 2, 7): "52eab6bc69edce3b215b4f3e4449317da82e0600191c28273af7af0996eaac5c",
    (1, 3, 4): "543d32b9c2ccbe1dd0853b56bc26fa8865b1d159007f332e6f2ebbce45ec9d7e",
    (1, 3, 5): "16a8b635af1ec691e67d692bfa6385728ddadbd3cb70da1eb9a316e41a52fc3c",
    (1, 3, 6): "34b6a20451143fdc77b1cd379c47eda73b7bb702d5b50c46090d6db63d248685",
    (1, 3, 7): "83eddb24586b9f6eedd178266f71b99c0a6b001c5e10a5eb953b3f610583bdf4",
    (1, 4, 5): "85ce26862618b1457fe8645a18bcd0a91fd62b305662d14566c97e971fa71909",
    (1, 4, 6): "8fb3888c6f628a4e4dad29d2ed1b9048c2bbe8eea6deb90e63d0abb9abc13642",
    (1, 4, 7): "f0efbc1f74b74946374f54ca6bebc813771af06aa85fa0e506711f3d87b64214",
    (1, 5, 6): "70b5fb759a41aa00f080dba79e9c753a7ca34b01c0c4a674893de56a63386b92",
    (1, 5, 7): "07e998ab6282e695e98e2ec659aa6f7d4022235d99510c57556fbd39f414f87e",
    (1, 6, 7): "ac4d25392f661c9ecd8d9719e68576f8cd936aa0f72a072d4011ce1abb82ee20",
    (2, 3, 4): "470b047bbb0fe3c12a33727c76434cc9e7a0b72c9df52b943ba5291ad2ec69ad",
    (2, 3, 5): "77a1c21f59b8161f43ad5c168f2fb5de1aac2ee5ba907ec03941a67154da2ba1",
    (2, 3, 6): "e0835dd32e6b78f4b236b6d1b8579fd16afb9721d965f4c3e8f33aabad7f9950",
    (2, 3, 7): "d75eedff5e83db038fe9d654f6bf6b2b4eddcf83b4373f4c9dfd207875042754",
    (2, 4, 5): "1abb7b6e6428824a835fafbcd005e3320975915267c103e0414fddffdd8d7cb6",
    (2, 4, 6): "e2a068223971ea0c5d609cb28e1e5fe667c682bfe0a3171dede913735af51a46",
    (2, 4, 7): "5deeb5c678d39981013c4133f08f430d47266208721bc385adf3fb5982e8ff10",
    (2, 5, 6): "21b05b729c1b432f16f487a1d07b824f595262865462efa4d30fc5191533ce79",
    (2, 5, 7): "f1e7ed998ff8d16cd864a269cb53ce3cb404c8cdadd16f7cafba0c05127c95a3",
    (2, 6, 7): "c92d9c380eefab616f98fab8559780590c68ec03fec7842a638eddcb311936ff",
    (3, 4, 5): "4637f6ec46b9befa99389b5164ef67ee12895f8e51d0536bf24b7eddda670706",
    (3, 4, 6): "8c9ac1387e601d838169ae8b7cbc19db5fd5e3958c3b5e5c77a26b9832739fa0",
    (3, 4, 7): "934cc76db8b77913f2b586a008c4f699953cb543c45d99e73fd079280f4609ef",
    (3, 5, 6): "fd95c0fb3b53b86c409c74d36c0eae11d73329deb8ed960e100001920a7cfc30",
    (3, 5, 7): "8a2d1fb1cbb4ae5c8369fb73c9893f61559570987bdc0c3346ccd4c2ea55b623",
    (3, 6, 7): "c119c642e94c0dffa52be181fe71ebcd6632e1911f07477405c6a6545af34f26",
    (4, 5, 6): "5ce9d38730fdb598632b8d604f77fe34a493758ff5603d792aa8820ede16f35a",
    (4, 5, 7): "609541468711c88f76088b8f629987695f458b633b6dc6efc8369114de781272",
    (4, 6, 7): "a9b49a03aebf6392992c9cd20c9dcdafe237bf4b2ba8847d37188c851d57c6ba",
    (5, 6, 7): "fd681274a67d5ee46865672b2151273ff2c1aafc52722b3b3930e463b860161d",
    (1, 2, 3, 4): "47d0818cb18c7df637800603fcd620dcfb46025d644d9d8ffca858d06bab482f",
    (1, 2, 3, 5): "221fae1d0464d92a21967354b729833d430dfcf8d1e79b17f1ee259747c0ed84",
    (1, 2, 3, 6): "a555135b9eba0e7a68bacb32ffb67a6838f973859a3b3327f8d93b92d0ca19f5",
    (1, 2, 3, 7): "d7a5e3317c25a59506e4d3a03e4220525f82b275477229cee40d347762288d45",
    (1, 2, 4, 5): "ba560d2b451e4a9bdea448fa89117b538a0f4172d26bd94f5ff12e2b863f5fab",
    (1, 2, 4, 6): "705da0aa92b203e73db6542009142499bb8c4201d809c99c76b691edd514aac3",
    (1, 2, 4, 7): "e61f6195f76113a67cf504796dbf3d2b7ab2fd36820155eb3fa55b207c8aafdb",
    (1, 2, 5, 6): "9fa82064a1bcb18587d2a6e27fc18754dccd7cbe08ed72d4ca715efd14abd7b6",
    (1, 2, 5, 7): "43249e2289f6a2e6300fc9ef446ff779cbfb5e7542b9d5cef2aa423822b4d8af",
    (1, 2, 6, 7): "1b1b889d1ac837ffcf413a7eca01bd75248000059641d13547daf43457c94152",
    (1, 3, 4, 5): "2a9ca64758555641bc3970ce350fabda63265848714b14f5cea521128dc476b5",
    (1, 3, 4, 6): "39544384b7e144954aa3597586ffe1c1fec815b854fbe0704ee545040d607b2c",
    (1, 3, 4, 7): "0ef784660f2ae46b37637ae56e0b765220b848ecac65eba0cd35809acfffbfe7",
    (1, 3, 5, 6): "15fd0aab2aa94fd637788b3a9b893f010231fc10a4fa30ac48f9ee63c043b88f",
    (1, 3, 5, 7): "3a6d2def414aea26112429eb5f90829d391be7a1d94a32da3e9d3f67792e20d5",
    (1, 3, 6, 7): "29d619ab3c8809425372e4316923e4e5f1cf9be4ea6ac93958e9f86eb469f260",
    (1, 4, 5, 6): "5a267d02516e1f3536d50a0c36c39bcedb44d1ab4a797e926b1104b4720c2e1c",
    (1, 4, 5, 7): "b377f2dda8a80fcfdfa2f7d0a2bf570527a68b83c43643544f7cf5a937155a55",
    (1, 4, 6, 7): "5dea793b57e829fc2b21c9c0a0a266a8c99f6fc33f955cb845385d549abdd88b",
    (1, 5, 6, 7): "38e438e8290a88f19bda6b01cfc868801bb3a098ad1bbeda42b1a459c34f9fd2",
    (2, 3, 4, 5): "4414a9a1dbba14f114022beefa023d2f48cb35d5fd08ff7f8c7dde67986a6559",
    (2, 3, 4, 6): "e7363dc730caee0a4593ecaacc7cc088b4c42c24af75e2eaaae1d3dd096a56de",
    (2, 3, 4, 7): "b65de00c79358676ade9db8e355044fd0de325642273d0ca087e63ef9fefe4a8",
    (2, 3, 5, 6): "1fa4231ddbd1ae45177bc32a05348872b0428de86354f58e8ba91cbf5ec55edf",
    (2, 3, 5, 7): "d94f299a92b886508040faaa31f64d8b22576eab2e8363c19e26a7e3eddf30ab",
    (2, 3, 6, 7): "d9e053974cad23cce28bb4b0d4c429d087ddc454152f307b007e44f8f0408699",
    (2, 4, 5, 6): "984cef6e38b501f0e4e6ccebc821bf156421a34302d673d026fc9bb4b728ec4c",
    (2, 4, 5, 7): "e5681a9117b7590aa9af432e3b76180c3fb74e07d7ae40f2fd3677396e89ded1",
    (2, 4, 6, 7): "6f3e77664b81001fc5efff0d525e29d085bc2175d651fcea748d0778e2ca6698",
    (2, 5, 6, 7): "0df07b54bfbdd54e973499e6902d7284e5a978a11eba4d221cb31ba0f71250f4",
    (3, 4, 5, 6): "a46c1d6b430d904b674e6807d16c67c1ca03868a4c229bd64cd3953957a5fb7d",
    (3, 4, 5, 7): "4bef905dc790b4f54489d7893a9e78b8edabf5ebf3b1fc1ef2617534984f2623",
    (3, 4, 6, 7): "57e55afd275a40bdafd9ec739cd74f2a290c1b60bfc7ad6554f13af127fbcd8b",
    (3, 5, 6, 7): "fae26644639b7920af32b9352e871a008eea638ffe412f44ee5b6eacaef5d1e7",
    (4, 5, 6, 7): "494de39f34706f817e3ebeda1da2f360e28ea37b7e68de65932120e9a614b70e",
    (1, 2, 3, 4, 5): "979cc94c8af31f2e162dab6c991e9c562b382e76c0823b494f63e87bab3ecd02",
    (1, 2, 3, 4, 6): "e6a6ea2aea9b85fb6b7e61394c85b178876e4a51c9b0fa8f0b74c231bb6cae19",
    (1, 2, 3, 4, 7): "807f6e8a88340454f04ad90559da3d4d4484d471883ed4e320a785f86e5c4f0d",
    (1, 2, 3, 5, 6): "0b3d6602c992f3e6be9844518168a5c7b47267dbd0daa9b2d15dd7038bb502b6",
    (1, 2, 3, 5, 7): "17a117d7cc720a7d8fbf1b83d8db6790ffcf515ddab2dda37a18fdeae9f1e748",
    (1, 2, 3, 6, 7): "80259e47e9cb04ee1ad807a299713887527348bb75a7e570f29efe312c4824ee",
    (1, 2, 4, 5, 6): "2b7b988ba99c270c664eaca7cf056b1e9a8d5dc6c9b45331928efa799bbeb02b",
    (1, 2, 4, 5, 7): "d32aebbfcac94bafc0a32287974037c4205804626089bb88edbf12a1af8943b4",
    (1, 2, 4, 6, 7): "3f0ebd362bd0fce82fbad6f62a9a6ac7b1a11a02ad973500a22f319bcb208e90",
    (1, 2, 5, 6, 7): "e0658f2766ab848c87e45f806d25d3cb9f8f24f9e61dd1d54c443a13f7103ba8",
    (1, 3, 4, 5, 6): "3e58089a6dc72083ca34045c222fa0fe7df593e33013a2ab04482a8d7bf68b48",
    (1, 3, 4, 5, 7): "8ecf7b43546dbabb0a84aa735b94bcc7a373ebbc55a6472ab424b112871dfbea",
    (1, 3, 4, 6, 7): "582233b25bc1080dc2852f746de3b8e66134e4ccec502caa83ca46858e440cb3",
    (1, 3, 5, 6, 7): "3cf65d3daec0b9ebf9a2083fedd0a3bdd8b202f4ce1d9f469b405ff68dda93bd",
    (1, 4, 5, 6, 7): "e5895be4409403024c200ee2d2fc05301be72994ed95ec0de2f0c9ab34da539e",
    (2, 3, 4, 5, 6): "519de915602cd113b724c22f6aa4af0ac36965a631b4bd59d1742da04d2b8ec3",
    (2, 3, 4, 5, 7): "f9907247fd298bace6978372e835b3a413d52a41e7ed6817742f7779511d3294",
    (2, 3, 4, 6, 7): "b0868af6be543a74bc8490b50fef132a4460b13dffb985655968b4bd0b017a52",
    (2, 3, 5, 6, 7): "c32793469b5bcce81a65ce850db6cfa98052f065e41d5acfa530a3365697c09e",
    (2, 4, 5, 6, 7): "e9ca1ae730b9af4f9cd887cfe67210dc93bc3eea72caf4f29b46c7a64039f37d",
    (3, 4, 5, 6, 7): "8f6354dc88e07c1aeaeddae2d0e64f448e7c9a4bccc0cb8bc28d716c8e302ad9",
    (1, 2, 3, 4, 5, 6): "e40c7bdfb0cabf26798b812b70c87b0d009d6842669c2899c221cfda550ca4d3",
    (1, 2, 3, 4, 5, 7): "e5e13b82864596aec553f345954d201ea1f21b68f2a28c9f55cc49a1124246a9",
    (1, 2, 3, 4, 6, 7): "39c660cec04bdb4bbf399bbc97b7aac433f829bb3db7e4199ce4b821ebafa37d",
    (1, 2, 3, 5, 6, 7): "7793ed4ff7213e6d0c3ea5b2e5aa74d121c524aab8bede665c5cb4def02c6101",
    (1, 2, 4, 5, 6, 7): "4631a1e9eafb2c3213aa3515dc26161df1ae7a6629b37a6b964b4c265a0844c3",
    (1, 3, 4, 5, 6, 7): "57d60bf23778d17a40ac8c2cbd1ac048d7c6439358958523cb76a28ef74252dd",
    (2, 3, 4, 5, 6, 7): "8f75d32ce3309bcb674ae998dd155112cc67f27f39a080a24f3dd8557d63beb5",
    (1, 2, 3, 4, 5, 6, 7): "c92f78cd66432ded9740a6c0959328e79b03f7c486f22c55ddc68af8d2961f21",
}


# Every QJ(n,A) with n in 4..6 and 4+ vertices, level sets in [n]; recorded
# while each QJ local case still worked out the endpoints' levels itself.
SWEEP_QJ_SMALL_DIGESTS = {
    (4, (1,)): "c616c4c18bf97395e1484849c046e2c33e877615102318ccd9943911e1f9be92",
    (4, (2,)): "bf8920ddf62d3646c4d3e4cd8f8ebd8483c0ad4445b60025ded5e0830b6b241d",
    (4, (3,)): "f2de32778241d92b8f23e31f428525430b9f3d8c5d5d36f32d39e6582ade64b5",
    (4, (1, 2)): "1fe43d1e6c8b797e456c178be813656c8ff6d183371dc85bff215ea946e94824",
    (4, (1, 3)): "fea3703c13d76899de676e93506b57839ff2f32c290f50e89ebdebe365bf88ee",
    (4, (1, 4)): "d6222924c829bac39a4f0bf0618989b4abfb957a19a66c597691ecb25aeec9b2",
    (4, (2, 3)): "fac9d62d5c8d491cdc0085f979892321a6b7c068052cac8b1efb5f9aefef20b7",
    (4, (2, 4)): "a7bb631e7d4cf33520d48841d1d01d713239eee128e9c121499e394e154e2f3c",
    (4, (3, 4)): "e7490bfdbc2a6749a0acd516848a773030cb5cdbeee3564d17b37d1966477319",
    (4, (1, 2, 3)): "5d166d33f6f5227be439d8b2df0f48776ec260f54b09bc4625c3ec59feafbdc2",
    (4, (1, 2, 4)): "1e8eb3f9fc256aa65a6a48cc7101da119d020c3d2bb00a3e069ba00dbde70a43",
    (4, (1, 3, 4)): "fd65bfcf51943c040ba1324964f012730ecea4fa23fecdb6c05bc47cbef79f06",
    (4, (2, 3, 4)): "bb1595c26a14edf782a2de8598b8d27c6d0748f191b85f442d7746a1f62e9bbd",
    (4, (1, 2, 3, 4)): "6759459d0525dd4a3e62717251eba3e57c82788d8005092bc59add020b739a3c",
    (5, (1,)): "ce0478e43fe704a0f4f25b39e1a862b5488583ef71742490f3053eac80b1bbb2",
    (5, (2,)): "f9a349cfdfb9a04763e4ecf7efcf30da9d2497a4f33e6dad8e866001c960a1c7",
    (5, (3,)): "12d0f519049ae4a6bfd7da96e69fa4d2abbe8633cd0eee9a87423cfb33fdcca7",
    (5, (4,)): "0f5b3d1df1844c0a2db650af882b724cc41b8eb49a8c5c8bffb43943785fc120",
    (5, (1, 2)): "fefbe059a953a2fd752a99de3c68b980ae3f56a61169e69577b2183e895b730e",
    (5, (1, 3)): "cf115293028f28f5eaa93881806a5b0d52767dd46e0d6fb367c82a37edbb8574",
    (5, (1, 4)): "fbfc958e8f527a670a4bad4da6b33a28fc31f3213b5a5142c15070ab194572f5",
    (5, (1, 5)): "c0702896e17ffb6f2b5739cf1f638abc2e879820f67e33cec6e277d8cb1f748b",
    (5, (2, 3)): "b094ea35c691bc0fc1ab97b7ae30e0e48e5ead7ec61b4ba7bba120787af082a4",
    (5, (2, 4)): "9fae4d6343690c1aaad3d6783bb17235c9031024060e48a88b3e1359b8755aac",
    (5, (2, 5)): "088a44656a87397c07e64efd3816ea2214646fc09d9ff209fc8fe6735faa09a2",
    (5, (3, 4)): "b55936de07c9165e2366c71b8857156557b24f56e024008bd799a398382bdf2b",
    (5, (3, 5)): "642d564105629c6c821189bf0f181bdfa5a145f690707ca5cc378deae4a2d771",
    (5, (4, 5)): "2dbe6797c5fca6f4917298446ff4f52733822d4999aa2c29b77ff6cc47115737",
    (5, (1, 2, 3)): "c2aa4b5f96e33392e0ff93ff866b40ec9a1e28ffc2ae51def72d363ed4025baa",
    (5, (1, 2, 4)): "40394320cb6a0ff2014991374e1c2d9951c79dad4e123733c225beaf3e18c084",
    (5, (1, 2, 5)): "9d0ac67fc63579b1e1282eaf55078be3bfd7c90d12b3147838b72e0aa3938fde",
    (5, (1, 3, 4)): "3cb1165b9f653ceb18a56cf00c13e3012423bb1013f0d9633e2dc4af58f4f975",
    (5, (1, 3, 5)): "0d50c17184c70aa7fb11c5128a6d2be37bd6d2043be46213a37ade87acb25ebb",
    (5, (1, 4, 5)): "ea6c1a9c73e35bd71be471799c0e4fb4e0a7ce1d3f92d6af4880978c88f7116c",
    (5, (2, 3, 4)): "fb78213775664909d9c64715fe5633780e48e23a54d68c049e596a217d8e0d03",
    (5, (2, 3, 5)): "77eb8bdc5e55fa8584db8af48679c1f8447aa337b65704efbb4f42ef19f0bd42",
    (5, (2, 4, 5)): "5cd060afe6314b5a81ab70d0cc7d9300f080a68dd29beaadbe30f72629857d4d",
    (5, (3, 4, 5)): "41d10102f093ef2f99d11392956da4b2149003f2ac4351bb0e25fb6da54b18d4",
    (5, (1, 2, 3, 4)): "0421724fc7f122165f43d5d248dff81bd6a7bd1f3672324039c5d73bf700d1a5",
    (5, (1, 2, 3, 5)): "389a0441bf21b0eed7540c71bec3e2f68a771c8c70a42c874d4d316d9d6ee653",
    (5, (1, 2, 4, 5)): "a0b7c2a0c6721ef0dc36d7b9edf4cb750bd2343b6aef1e6b39e74f67e8e6aa67",
    (5, (1, 3, 4, 5)): "c8a950d1cb7182701c40d805c30450b900d079f6a8084b03f47a64ef42c2fe45",
    (5, (2, 3, 4, 5)): "80e6c819abf1fc0d65020742702f1a6232747063679ef9f794a0aed9c86e4fd2",
    (5, (1, 2, 3, 4, 5)): "180e05cad4ba280191986a0206e334a22b3dfc8b14801feda70ee1a699606c6e",
    (6, (1,)): "c332b1d9b37ffc8887acddb9a50803d8b5bb641aecd5dc6e022a105f80e3889d",
    (6, (2,)): "faf676a4c3347e1dd2dc666e6307f6e59d28bc91f92e69d1fa0424b0d9ab713c",
    (6, (3,)): "7cb7b63abb311abcc079d01f225c90b5b6b0a187d856ca081fe3d1242e9247e5",
    (6, (4,)): "d1795453b255efcd32be42239d4dd8e82b59506c6c1e097dae04f8aab47a941b",
    (6, (5,)): "2fbe42907382a196c17184d5f8fa6bbe6efa5ca1ea105e58767b88c75c0dcb00",
    (6, (1, 2)): "5a6e732b832fa55befce118fcde8d7ca54f2ebefa395f8a605bd87c48da14a19",
    (6, (1, 3)): "a103d803daf294448420a117e7b1db3747ce0cb2ba4df62a021878962e5df5d8",
    (6, (1, 4)): "ce1ec41c984703956a403e666924b45f1015a0c41d4b83064b7487e81ceede5e",
    (6, (1, 5)): "379874c7a0f33b68f4cc7c5d8602afbc7a9451580a8e3c849e49dd6635a834e0",
    (6, (1, 6)): "7f2d956f838b6041f511309449e7968c67802e49d7469902a77b9ca4380e6535",
    (6, (2, 3)): "93040cfcf4e48509702a6fd4b5d0af95560f4e40282087a9a896a9af1fae91cb",
    (6, (2, 4)): "3b9d73d04fcd9234741307612577c3d3932dc658cf6daca44104ab0c9c5b6d09",
    (6, (2, 5)): "dee0cfb250b44b21be244bda05c39ff5d4455acad5b4faeaa8f93805905564d2",
    (6, (2, 6)): "8b98c12d27ea16f0b398d731399b1c4a758cefef0556e3da0e877926e6af2b66",
    (6, (3, 4)): "d8ae7fdb9a7fbe94d6fd20c1673a15f732f543f23af741b6231846bb60cfb58b",
    (6, (3, 5)): "827e53664167466c5289a59ad97aaf50275811fcf91086328c658eab50dbb7dd",
    (6, (3, 6)): "afd179d48c47ef4edddd329078108deb705c8347c9996d3fbee32bf17dc0f9bd",
    (6, (4, 5)): "76057f8b6daf6e6e9055b98fe3c5b4fb4f65faa99f6f485c1cff5fa944af43d6",
    (6, (4, 6)): "6d85411b520c8447430119a2b99fcd5224de3e0a6c4d270678730a580b14a79e",
    (6, (5, 6)): "1ce07ee2ddc864bae99136cdb73d6f6805c25fd6d9386f786adaf55fed6cfb0a",
    (6, (1, 2, 3)): "9726bcc5e7b76fecda0062e90fa676969c70ca2b4da3e7828a32f74a971a59e0",
    (6, (1, 2, 4)): "4b6bdec64e45ccd8c957f6e1d6afd50dba91036d2185edef8c447ca1a9085078",
    (6, (1, 2, 5)): "98b5f54c86f7a4ef5a6893fa513834ebc6ac3880482ba8b1e8ac1d13765329fd",
    (6, (1, 2, 6)): "f31b266da39f8c0a5c78ea89f45a8ebe7e8f56140e9c1f281cf35a1129b56557",
    (6, (1, 3, 4)): "1ad635eee278e069d116826e7a68733715766b8859eb34d7267fb6525a488393",
    (6, (1, 3, 5)): "38a49cb33f087e40ac74cebbe4f6fa5c189a4bd9a188e2e8a7c049d408695414",
    (6, (1, 3, 6)): "fc2cd3459d814050f9cde21092abd31388cf06257b9b560f6629d48313a1afbf",
    (6, (1, 4, 5)): "35a3e486204b9a7b9589acfa837326ac941f362d0ee3c50a08a42b9f16a0f3d5",
    (6, (1, 4, 6)): "eda0bf9e2a15f3c5524ec6278120e0fd8618160c530af2afdf38567ea1c49ffc",
    (6, (1, 5, 6)): "bd0315c94fa61770e72497389d7716238de24c139f84cf939d7c2a8739306794",
    (6, (2, 3, 4)): "1f1cdca7faddf8b590cd48ecfc911af4c5e6ebf0ee66c8c85bc3c97461a695fe",
    (6, (2, 3, 5)): "2bf197b7ad65b6d5fbe28c850d1e6b12eb9abd29e6f2ac7a259551622733f19a",
    (6, (2, 3, 6)): "a8309c64320f1f6bf8a709d5c1ef0036f1b96eb02dfd1c276a8cab9a1a61d541",
    (6, (2, 4, 5)): "bbedf0ad783abd2264c20c8794f08859777a35aaf912dbdc3e73536423d32212",
    (6, (2, 4, 6)): "3515ec818eb44b2fc6537937fc2c51a7627fb8665b12405b680ffe39198d3614",
    (6, (2, 5, 6)): "e5b4c530aaed82bda0f097df712b5ea598a2fa1333e01a3c3cee46ad0eb6b110",
    (6, (3, 4, 5)): "6dea2828d08301e3f3d208e2025786d62d1f91b6cac24af51feaf8f2297c4a8a",
    (6, (3, 4, 6)): "e72a25df0adaadaade704b422a65b45b07a3374fa47928d76b1c10f4e212c7bd",
    (6, (3, 5, 6)): "7e50ef3a39c7b39a780bf1a4a05b51c85abe1c9f6ddfd483f08c5f8a1edf4c17",
    (6, (4, 5, 6)): "3e201dcb88f2e26322fe6546d98d171d484d48c998a475ff1ae14606f45eaf8a",
    (6, (1, 2, 3, 4)): "806606423df72fb3ac8fe7b10f4343d3896c63c3934811cc986503d7fd7ea5a6",
    (6, (1, 2, 3, 5)): "3a8c3b82df334cdea480e9b271328ca351f359ec2cd7a062aa115d35c02cdb6a",
    (6, (1, 2, 3, 6)): "e83743b63c06ba1ad5a5f82d1dd7548c0511e368d746bc3ea7b7f354f67c3bc8",
    (6, (1, 2, 4, 5)): "50879c5b591bf7f86bf68a18d25409c658c9f68645899320d282d113b3230763",
    (6, (1, 2, 4, 6)): "e823625102205f854e272b49d60fbd27b36f33f7094909d9e033c2a581f9c0a9",
    (6, (1, 2, 5, 6)): "ad3a7053b708602b0b63e6557d6441f748cb99709ba0e4bf465062debfafcc3d",
    (6, (1, 3, 4, 5)): "ad04cda28561c5b3688ea1b75034f8115ab8236f4ca2c5d35650ac38f8dfe03a",
    (6, (1, 3, 4, 6)): "a8c574283837f802618e94c892ae2515861d5222bec7017ded690b3c33b0132b",
    (6, (1, 3, 5, 6)): "92ea671750de9b754da97e55bc1db51d4b574945cf7022012c53f7ff09978fd3",
    (6, (1, 4, 5, 6)): "f1b1d7eceb61a7198c9523a5a093fd28346c1814237ab4750dc39af3a663b8a2",
    (6, (2, 3, 4, 5)): "e3fa4231e9a1ec8325e5459fe3f5d009703d3ac39a3a4702ae7111e98a1e79e0",
    (6, (2, 3, 4, 6)): "2a702425e8b7084ea06009928de7407862ef90a13e6cb84581ff246035962f00",
    (6, (2, 3, 5, 6)): "b97c91123f609e7325e4b93dcf5c819e9ba907f194d65d77c4a743d3fc94764b",
    (6, (2, 4, 5, 6)): "f085429885c6c73f59b5045826dd390695833a936d0f5cfe5fca018ee522fc4c",
    (6, (3, 4, 5, 6)): "e028f51ee24a98d556d644c1b504832bc4850da57361aeefa7e86c79a56ddfba",
    (6, (1, 2, 3, 4, 5)): "b261d55bb94eef2f47f83cb32ea15338c2864522f65615af699f40c863db395a",
    (6, (1, 2, 3, 4, 6)): "eeed7d5f6fed507561203e4c70687ff60cb383c4ada9c60a20f0960311db2bb6",
    (6, (1, 2, 3, 5, 6)): "5bf5c46c2d5d04afcae3d4cf00c75c58f2d12bb9579f8b61685bfd305ccc0a29",
    (6, (1, 2, 4, 5, 6)): "db4ed94b34788764334537a8f14204e41ae6e4e297a4b8cfe440e74ddf6c64f3",
    (6, (1, 3, 4, 5, 6)): "a556b14977c0e25eeaca0ad97a75c77806571d5eca489f7636115138bd40de17",
    (6, (2, 3, 4, 5, 6)): "22391535ff735c5c681226c6c76113229bc87468b8a6ac2f93151a9cd71e7b1c",
    (6, (1, 2, 3, 4, 5, 6)): "0298f885c7f6381edbbc0a57e5a30522990aa3b6c5bda627ecd266bc4ca75694",
}


def _sweep_digest(g) -> str:
    build = builder_of(g)
    verts = host_of(g).vertices()
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(200):
        digest.update(repr(build(g, tuple(rng.sample(verts, 4)))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("n, k", list(SWEEP_JOHNSON_DIGESTS))
def test_sweep_covers_of_johnson_graphs_are_pinned(n, k):
    assert _sweep_digest(JohnsonGraph(n, k)) == SWEEP_JOHNSON_DIGESTS[n, k]


@pytest.mark.parametrize("levels", list(SWEEP_QJ7_DIGESTS), ids=repr)
def test_sweep_covers_of_qj7_graphs_are_pinned(levels):
    assert _sweep_digest(QJGraph(7, levels)) == SWEEP_QJ7_DIGESTS[levels]


@pytest.mark.parametrize("n, levels", list(SWEEP_QJ_SMALL_DIGESTS), ids=repr)
def test_sweep_covers_of_small_qj_graphs_are_pinned(n, levels):
    assert _sweep_digest(QJGraph(n, levels)) == SWEEP_QJ_SMALL_DIGESTS[n, levels]


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
# random.Random(0)).  J(9,6) and J(15,9) go through complement reduction;
# J(14,7) and J(15,9) have more than MEMO_VERTICES vertices.
HAMILTON_JOHNSON_GOLDEN = [
    (9, 4, "2a2ff0d2ed4ae3d6a0d8b37327086126a5e2d2956dca6f0cb8d917ee153bbc52"),
    (10, 5, "7b8b1accf6489eaba97619ff8f4c0743ba15196c2cff758056e0614c76a94880"),
    (9, 6, "a28855d66b995b7f0d02b5f508583a8e0e5dbf9c752a159c6064f435de5d21d3"),
    (14, 7, "0fe9c6c8b023f8f06ac34a73d4bd221d43b94ac156434ec9ca0a830bbc25b438"),
    (15, 9, "b4a5a735b90a792fa41561c3a400435e553a8bf11360e3b459f445f6883a9749"),
]


def _sampled_paths(g, construct):
    vertices = list(g.vertices())
    rng = random.Random(0)
    paths = []
    for _ in range(20):
        s, t = rng.sample(vertices, 2)
        p = construct(g, s, t)
        assert check_hamilton(g, p, s, t).valid
        paths.append(p.to_json())
    return paths


@pytest.mark.parametrize("n, k, digest", HAMILTON_JOHNSON_GOLDEN)
def test_hamilton_johnson_paths_are_byte_identical(n, k, digest):
    assert _digest(_sampled_paths(JohnsonGraph(n, k), hamilton_johnson)) == digest


def test_sampled_hamilton_qj_paths_above_the_memo_are_byte_identical():
    # QJ(13,{7,8}) has 3,003 vertices; its top level, J(13,8), is a
    # complemented build of 1,287, above MEMO_VERTICES.
    paths = _sampled_paths(QJGraph(13, (7, 8)), hamilton_qj)
    assert _digest(paths) == (
        "fbec1e440f866b526c7dc76018a9da0eefdf438e87316500ca5ffa00866e3fad"
    )


# One sha256 per graph over ``repr`` of the mask paths that
# ``hamilton_masks`` returns for 40 endpoint pairs, each drawn by
# ``random.Random(3).sample`` from the vertex masks in ``vertices()`` order.
# Keys: every QJ(n,A) with 4 <= n <= 7, at least two levels and more than
# BRUTE_FORCE_LIMIT vertices, the graphs whose paths ``_ham_qj_build``
# splices rather than searches; 101 of the 194 hold the apex J(n,n).
# Recorded while that builder still had its own level-edge search, bridge
# scans and apex detour.
HAMILTON_QJ_SAMPLED_DIGESTS = {
    (4, (1, 2, 3)): "adc5f7678fbd6d280d21e8cf22fe3d89b6b3442dbe6650648312d093f325cc7e",
    (4, (1, 2, 3, 4)): "337589a6cfaf36489c1ab31025b395103b17fe693c114164efd0bbe0087d2bbf",
    (5, (1, 2)): "27ee900e6e1652c91b6353b042dca0c4f3b1ba19642a2385e9baa61ebce2c97f",
    (5, (1, 3)): "1a051b875eac2b36905af3420af4628d2f8152dab52bdd2b668708216b2af880",
    (5, (2, 3)): "803c082c7c3359b48aba8a581afc9bf4324397dd012777b6eac048db05ca62db",
    (5, (2, 4)): "c425b32fcf244f3da14788d67056fdeea1ce17a2297d7be8cf001af1d6777b1e",
    (5, (3, 4)): "014a279e85f3b740008114443203d15fb3132c491c7b6a70108e3d54f3b06829",
    (5, (1, 2, 3)): "f3f56859ec58525b198b14411f066c5faa3ad5078545e54fcd373698201e751f",
    (5, (1, 2, 4)): "7c11a3bd5f2cdc01ecb3ac92434139dcfde8d23c99b719252a24db4aae814e8f",
    (5, (1, 2, 5)): "c476233c59a298e3e4f7d3eb02c4b134c873a4b70bcd80321535c83659398b08",
    (5, (1, 3, 4)): "8dac14f5810a50560737505cb386dd2a1a5fcc4e3cd208fafcf84cc0db242973",
    (5, (1, 3, 5)): "66d2b0cdc3084d4db5c8c11b3723ecc52ffb9abc342b807d2a364c9119765aaf",
    (5, (2, 3, 4)): "1bcb80492420d3b80d8016cfa3dc0d0e0249c97f9fe2936c3ab00ded08960bc6",
    (5, (2, 3, 5)): "c1e60409aaa0264ea2193ce4df0c45947a532897611e42ead098325c4a28d6b4",
    (5, (2, 4, 5)): "af533fc17a330bd695dbacd37c561bc38a0f44ce6385329ba796617471d814fb",
    (5, (3, 4, 5)): "e3222d025614137cc2739628e50b8e4b19ba70eafebd477c1330e123ff1a45d4",
    (5, (1, 2, 3, 4)): "d0bb71b21e304c61ef623e1a861a1e2c97fba118916dccaff2b4478cb8c67097",
    (5, (1, 2, 3, 5)): "1a42efb6ccef0852def170cd539be4094ca27d3f1fc693f6e17c8eb32c911fcc",
    (5, (1, 2, 4, 5)): "92e5c65d2d83b9557777d62feb2eedacc4a628401e4f1d9a2e324fd59ec4ee03",
    (5, (1, 3, 4, 5)): "41d9215d8e2f2e1631b95e9e440e8b755d4a98d281fc1bc698d0b654705dd792",
    (5, (2, 3, 4, 5)): "932a37ab15b8ad82025ac8dfd938a3903e2f76be16b702f9d01139694f527c35",
    (5, (1, 2, 3, 4, 5)): "40d9267de915ce1718632bdbbc1cece8b7b5193c7a8a8abc2e908fbe9193c164",
    (6, (1, 2)): "60c9c6b026dc72ee3463ae1f4ff2b96873c28b92310b9b04163645a046c96023",
    (6, (1, 3)): "0e8b44667ba5127f50920ed270cb1665e86ff15ba822a9c962e6b5de0f249136",
    (6, (1, 4)): "1a1f0662eb56d163c8718e93ccfb641cb163073bc687c5ae554869355445324b",
    (6, (2, 3)): "7db2b8d65829927339d20f67992455019d0fa8adfc7a7fd319611def18ff308f",
    (6, (2, 4)): "6bc3ba7b5791cd77be87161562ad6c46ebf5dc83aee7ef3247901596a18cd2ea",
    (6, (2, 5)): "00b0d3a8ca493f5127eaacf0a2991e363c8a60e212c7d3374130fc2c6b86dc03",
    (6, (2, 6)): "4e632fdfd5d6567b2e19f82728c644ade7038aa3ece51711a37d61d8d42c9082",
    (6, (3, 4)): "9c9f30a811e348200b155d5f3610d8b9da033c115b9298425a9c6a2deb9f6727",
    (6, (3, 5)): "f72add5a1d239421d339bf025b11e7121c200bfc7c1efd0983e467db220f5d85",
    (6, (3, 6)): "bec17215594e1fe0612743300930d6ebeef069e0eeeccf4332089d1c37c90b1b",
    (6, (4, 5)): "003dd469f1b6c2512c6b1f45225b33ec5b21fe20dca4a64bf6d458b37db56dfa",
    (6, (4, 6)): "c291ed06ff64554969ef1b3c4df016400eed2cb2a82f00e27549c55cac8ab84a",
    (6, (1, 2, 3)): "ee7519ac49e7762a85362a50f49ba416180d1af7f8f0daad140681bbede8eaa5",
    (6, (1, 2, 4)): "d338a6d4779d4205fdc74734141a954b6c6a19072e08be55bb5ae972bcd18967",
    (6, (1, 2, 5)): "51f765868c37411212c60e8e511e90e45c1f8fd47a8affad1a8815de9b27fa3e",
    (6, (1, 2, 6)): "43f0821b152d580a62be9db382a3320f8905ecaebae65519ab25fd25bdcb89e2",
    (6, (1, 3, 4)): "33a468e5597457447fe46e305b556fab3b3fe88673fbd24792384fecee0ab957",
    (6, (1, 3, 5)): "1129fd97726d2bc4e4146a5b6dc52bff7f3cac9bad698d01200a14326a203e32",
    (6, (1, 3, 6)): "ff5734b21e02850b1b2a66a684446f6c277756424e02687b4e9477774c8ab1d9",
    (6, (1, 4, 5)): "274004ea4ce7a62e07e31a392a775b247c85926d6a3d2a6e166c08066168caa0",
    (6, (1, 4, 6)): "609aa93f58ac837ce2cc1db307509e3147b60c90e6c8514ff3e844ee844379c5",
    (6, (1, 5, 6)): "4684c51dd12cd0f36145515f5b6c45e3936f23381f91fdd8816eeb0bf4100133",
    (6, (2, 3, 4)): "c099067e8c78f33fac95db77b3920048c543d231e4f4a5482c29db78cb651c0f",
    (6, (2, 3, 5)): "db978e827d26e64c42adb943923e176e8128e643ec611c93be7cad651d2ccdf5",
    (6, (2, 3, 6)): "c7c1cc640ba3197bae6faa807e1d5aed4032d56642c2eae8ab957b310191680d",
    (6, (2, 4, 5)): "b4b0f75abf97dd113d3f149b9e8c5c8a86f29c963fe842497f5bc5531ec473a6",
    (6, (2, 4, 6)): "9b74f314dc82202dd9b1c4c0a8c787343b9c4910b31d6fcbac84d626eb25cb48",
    (6, (2, 5, 6)): "adb85f8e46ea85df748ea27baca4d34b60385ab1380d227b66069dcce6e1a5a3",
    (6, (3, 4, 5)): "48946ba78d95437d49c9ef2d8ee5186bb7b7807eef02ece9cb96f3b315af3020",
    (6, (3, 4, 6)): "18fb1ab8633f43c399faeff4f781c0442083f1e0c4bbcb702a552826f82b44f0",
    (6, (3, 5, 6)): "d3a06cde9aae2f367bd4df290dc4ebcb64c01b75a1076752c42fc8ceef7f8c72",
    (6, (4, 5, 6)): "2ef15781f39b3e3398a046731f80b5e6855c63ff02be5603d95d5c70669b5130",
    (6, (1, 2, 3, 4)): "e455a5eb5342223c00fdaf59dcecfff14fdcc4409bfe5ebe1b181699dac20a24",
    (6, (1, 2, 3, 5)): "31dceab8faf7b4f76e606adc665cbe4fa143e4bb4f8002e647bada0ff324927f",
    (6, (1, 2, 3, 6)): "7374ed6edb01ab064252f1eccfcc9889d3d46a593406e619be269cd418401692",
    (6, (1, 2, 4, 5)): "9e8051546da800fd565aff252050061c6ae7e07c9709538ae720065743ff50c7",
    (6, (1, 2, 4, 6)): "c4d51d292c13878bb41979e025b84ba10ac5e487a0cd11891b7aff49145ccab9",
    (6, (1, 2, 5, 6)): "158181b224352f6caf3ba03b120965c5783c386df30abe1ec71d82c661bae7c1",
    (6, (1, 3, 4, 5)): "c08fd19ad7a13edbaf83c5627d524c7b5fed031929f47bc1731ec3c557541f64",
    (6, (1, 3, 4, 6)): "16396c36ff0fa31f8f720c6d560bcc5a128d89011e549eb0d3f686b5002e64d2",
    (6, (1, 3, 5, 6)): "00572ea68ed1a79d5af5a80bda4c01abcfa7b09c5c0a443854f13edb88eb5cc8",
    (6, (1, 4, 5, 6)): "664e1164d7615ba3913ecc1cc23b364c65b4b9013d9f50841d74cdb145772453",
    (6, (2, 3, 4, 5)): "c23b6fb8031b2ea627ee0382c212dc7b361640c7127ec7b44a1c10e94999fedb",
    (6, (2, 3, 4, 6)): "9e5c687cc28c2c7d19ea3f4ecb12e25f6f6db0fddb4ee7a24ebdbf36e12c7f1f",
    (6, (2, 3, 5, 6)): "14afbe82e6c0b16ec915bccf7d0a557aaae3b07f10670d386e4f6cdb39dccbca",
    (6, (2, 4, 5, 6)): "c763f943cd5e4c00ed845afaf9a767a10caaa796d1d6d7649e09d15efb97a666",
    (6, (3, 4, 5, 6)): "42b72866e8ef42d1dc1200f6769e4cf8411d1e9578a24b5c1af24472951dcffc",
    (6, (1, 2, 3, 4, 5)): "480e4236f28e29f38e35c7737a3fb295337a6a4a510993687a3401ff36f8ad4b",
    (6, (1, 2, 3, 4, 6)): "d046d2647cdd306cdb4e0c78334fd387479135581eb233a86158a93cfd549037",
    (6, (1, 2, 3, 5, 6)): "0fafaf0f6a3a8c62c6f97f186de1827ccd1e934058d8d1e22569f503ac3ecae8",
    (6, (1, 2, 4, 5, 6)): "85d0e1504a2d53b3a31b481d4315e78575a88fbb8b655bb3dd71d9419f70f864",
    (6, (1, 3, 4, 5, 6)): "43e53663fc358956034719ad46203d0c13be374ad9548d584c40a4e8b5a03264",
    (6, (2, 3, 4, 5, 6)): "bd4b0f0d633b07bf93c9c4a2d6a6c1a071c32b775331a49075a7c8a168f467ed",
    (6, (1, 2, 3, 4, 5, 6)): "0f801351a6c3d4a1b6421db4dd63adb95f9d3a3a936ae1885c2324fd95c6badb",
    (7, (1, 2)): "d6b670797518ea692b0533bcc8c668472b752dad39651374943d4f540b6d3fc9",
    (7, (1, 3)): "b8969c181cb10997010fadf04765af463d5cbf97a4973d6452cc8a1e386893a9",
    (7, (1, 4)): "094b685d9a17124de9f61dbbc5be43e8061e77cef70d3ee36b2a4f0cf7f7b9f4",
    (7, (1, 5)): "e43b5ea957ccd1532f45d42dbb041f6739a7a13b5afdd7f626e83df79653842c",
    (7, (1, 6)): "4be11543827a89d77326b5dd6edffb7ff1cfea97af9f6f7196be5db1fce8c542",
    (7, (2, 3)): "76a19bfb264419ef5dd050b42c1be2d09c58186d4e7c1f13b79a922e3b3fbdc6",
    (7, (2, 4)): "061c319c9bac7227b36558647702c5d652d213b5dc136c60787309ca1d8fbeb2",
    (7, (2, 5)): "64bd2bbf455c0dffede5cd98a644b3c02b30d5ed8fa0dcbb14fd7b101613fd27",
    (7, (2, 6)): "be0a3df21831f51be582fff1c80a9f5333503e07331f05a21120f7efb4e9abef",
    (7, (2, 7)): "c3cc87c36d0b9738e63e32776095fb81cdbe5136a826560b5d05a915ecd11283",
    (7, (3, 4)): "323f584df6934f0c2168048d98642994c2c39666173e310e515e864532634c7a",
    (7, (3, 5)): "f3c5b9dd9087c73c11e2ac6c7f40069cfe70237526165eaf106d1ae7ae058e54",
    (7, (3, 6)): "bf7d916c9293d1c0e7f71576c3300c9275a76de5bf1147456065daa4dd5fb3af",
    (7, (3, 7)): "baf45738a1d20bc3b32e8247b621dc600f094c0f69dfd972a4d304b7dd36f5a3",
    (7, (4, 5)): "542961ca793f5e8a9ad0c8c569b5d775b0ff25ac351945df1dd141bc135794b6",
    (7, (4, 6)): "051630a19637ea745922230095015d9d9d7f1bdc978a9b38873f6b001a04146d",
    (7, (4, 7)): "0b57c30551e20cdf225ee959b9d7f62334c2ef60c5aa4c03505f2bf082a47777",
    (7, (5, 6)): "dc780a5a4a62a94c4f0deeb9d58f8a2bbda9339b1a2f5f99c0cab2b13165bcc4",
    (7, (5, 7)): "eab6a230e62ef34aff69402f1bc790dab0a2d1ab5efd6ca07932d6a4aa826a32",
    (7, (1, 2, 3)): "8c8a67cd9c4f93950ea7fb31425a2c905542954e29e4f36df5ede31929936fa0",
    (7, (1, 2, 4)): "51602edc04115080979cb811d7caa5a5a71844ecc5eb4bf0bf70eb1e44292f6a",
    (7, (1, 2, 5)): "11bf09ee5c5b465fd1af8149eb95c87217a2f32af20ba6cddad159d5cc804cbe",
    (7, (1, 2, 6)): "eb26457967682ac03f25fc2a779c4f96e632f2082834d0530c42cd86fa0d9fe1",
    (7, (1, 2, 7)): "505f08be509e63d9415315060cfa5145a206e9ae508632e27c5fb9acaf1bb230",
    (7, (1, 3, 4)): "61e523ed12cf087101aad290b8bb91b8366167c63fb3fc4105ce9dffe979d72f",
    (7, (1, 3, 5)): "50b36ab98734c1d2c5c98b80849deade5945eb33e46013091ada60324f44839e",
    (7, (1, 3, 6)): "c8afb372db050c02eb6b5eb84842fca130a6e31b82f24f0e4527a049543d0e82",
    (7, (1, 3, 7)): "1e65b0dc7c3338563bfe4fab175737d59e916d8c57894c708577e08788a6e76c",
    (7, (1, 4, 5)): "a6abfe32a3abb8bb8adc6fbaf742ba888aa3d74c9fb94e85283d8181767330a0",
    (7, (1, 4, 6)): "5c8d119708d6cee0d80739e304fe771e8f6ce6e8994a6abe61b3bbbb18223893",
    (7, (1, 4, 7)): "b792908c15f2bbf3eb06478159a04f973e8c0bb9a7d58c1d1b3e8dcc913afa34",
    (7, (1, 5, 6)): "089729d2cb18b64c2874b4c6b8a86bf8ff20f617ab9120689e881b6178a30143",
    (7, (1, 5, 7)): "9ad179b0ab641478835fa11686c878659aac574d2a99207395cb3c48407bc36a",
    (7, (1, 6, 7)): "e95a001b8791732508aad4f68c2d2b25e4f38e5e5207b2b4daba83b0d8dd51b2",
    (7, (2, 3, 4)): "59cc1294f40f512d19cfc8e15ad9dcf959c729bb8983c1a2befd198f10183da1",
    (7, (2, 3, 5)): "8b8e51813fd7c6d6f09e9c18c8c1da437bd974cf49898fdf810cae1b4fccfa06",
    (7, (2, 3, 6)): "62097ae77c95c315fea8c7ee9d4c78cb6f1ec32fc7eade650bdaf560339f84c9",
    (7, (2, 3, 7)): "63b307e29f00f0d2b9242deab6c7720536c2a6281f56c7efbba4a9b42b54ed1b",
    (7, (2, 4, 5)): "db118b9ba75f677a19f26f6d8673a99eb3f4c3752e82b1b5c6136c82287fa1f9",
    (7, (2, 4, 6)): "b9e5831bd3060bf8686bf467d7260f9f1ac078dfbe12a05b7eea39f7e06adc79",
    (7, (2, 4, 7)): "42b9b109aabd82f816d5b365d0657e9eb0631bd40ba4aec6dec0e35aea8bbfd9",
    (7, (2, 5, 6)): "6424ca179c07850c50eb121b2ef14d16a754dacde154b3c2d181d6a3e4326028",
    (7, (2, 5, 7)): "5b75f037451ab920ea84e9bb3e5608f54ede77e174d5d619dda11015877547a2",
    (7, (2, 6, 7)): "603a5242dc2fc46ce21c6e3ff3e855635a0c2140b2fc2ec3afeb8715e6dbab57",
    (7, (3, 4, 5)): "7b526df91ca6a5691f6cdb443892ab752f76b9ebdee02fd9e3f65959cfd90d08",
    (7, (3, 4, 6)): "9ca6bdde18b63508fd1d94f909fbac43c752515b2bb277a9d99664188d2763eb",
    (7, (3, 4, 7)): "c96bdf1989a5218b9bf87c537379663a959659679e03fdc7676214df6e6ad01c",
    (7, (3, 5, 6)): "8699ba00a68900d356afa2835f6ae25183d12ae2dbac4dec9e06e3410b94d762",
    (7, (3, 5, 7)): "6b4b1689e7ac4fa96327ddf06473cca5e1b383770ea9812055a3946105229b1c",
    (7, (3, 6, 7)): "3cb9d8e6db3d4a1b0328cd4dc3bc5f642dc75361a1c5cf912dc973e58571c5db",
    (7, (4, 5, 6)): "40b29ef1e38b00cba5c71d5d05ad9682e830f693bf0fdc2f81bb90e066a9c22e",
    (7, (4, 5, 7)): "2b091b3c23cff671561c8c3d869c4b8774576f6a47cf9cbc7eff718b21928fc2",
    (7, (4, 6, 7)): "4452133eae1ecbca45419d3e0af0f8b21024daca9e3cdee9a71105894e1ccfec",
    (7, (5, 6, 7)): "d06c26557bdad2baa2618a35bd4d58977e2c92d865f66308a3eeb9552ac06e81",
    (7, (1, 2, 3, 4)): "0bfb76e8d5146f9f9f8ac1e2af5b391858e58d319dd6fb17564c382ee60e5a20",
    (7, (1, 2, 3, 5)): "9664b82cfde30a53fc12a92428b11cb8cda7e2e30c7983972e9a8cbdd4ec6c11",
    (7, (1, 2, 3, 6)): "f18178e88f548304b3fd1e3f40a33e63a0521a1a99cda8f0d050d78cb09fd7ed",
    (7, (1, 2, 3, 7)): "36350a5d6d8ee29c764c40048afb7c0d4b65a40cd24b4d236e6a0aef66447fdb",
    (7, (1, 2, 4, 5)): "367f0a7b61684037ba16161a72319f3231ca8291eb84849fcc55a292de5347fb",
    (7, (1, 2, 4, 6)): "ae69353fcf82df0f0bbc318d8fdc4d569e03a2c4c5bb5b2d101ddfd24584333c",
    (7, (1, 2, 4, 7)): "faf120566c6e4d8fe87a8771479398865c602ac8f59b4d901a4ac05c0668fed4",
    (7, (1, 2, 5, 6)): "b9870465d73cc5921f7df2f9c31f4527e79b27fec7a7140e1ce5222d300b7946",
    (7, (1, 2, 5, 7)): "9f11e880f08731c6ce1b9114f01919874a4eebc763eac56d1e3660889fd7328a",
    (7, (1, 2, 6, 7)): "9550b9d7851b57ca8abd86d5d72a72a5e197b60a6bf97e81c8706b5a16f078d0",
    (7, (1, 3, 4, 5)): "d1a086b82785acbc3d246665e0dcc6e29ec7084c2d35349942a65a4dde5b5990",
    (7, (1, 3, 4, 6)): "37861f72b439c0e565cfe2c8a90b9eb45ec6394019af56e744e1946847bdf9f9",
    (7, (1, 3, 4, 7)): "49e647d5f99e33681478e4ddaa82598a344d8041cf30519a7bfa8cd96ca81dfc",
    (7, (1, 3, 5, 6)): "abf725e12ede07d04ba8010425ce67e5362eb415d57a9f16b4bfd495cd8f831f",
    (7, (1, 3, 5, 7)): "9d2a2a09254ce32f605430cf0b509ef9baa59e86c239e2fbe4ef4924920e1af2",
    (7, (1, 3, 6, 7)): "0f26d556f862eb8abd399c35218e12801eff9827565628b8cd286ba76832b3b3",
    (7, (1, 4, 5, 6)): "d9919ab12fe0a928872042cb7d65415dfeaf9134474ef0cfcc2f664cc64e830c",
    (7, (1, 4, 5, 7)): "72831bd6019c71d5262b8b7fa7f7e6117568d051baac2b9af44a052a80eb82b1",
    (7, (1, 4, 6, 7)): "c9b441fec27a1e9370a0a52d5ec0aa84cdd10daaa125eb4e369f620f34e93445",
    (7, (1, 5, 6, 7)): "a4eeed72b11c09b4866d698bcf4cee01fd4b8b4a8e277983e42fc92a9a70f98c",
    (7, (2, 3, 4, 5)): "4202056ea8f85d6844be3583d73956535227bffc3481bddee37d535eac0cbce4",
    (7, (2, 3, 4, 6)): "a3a6e0be1a84a9aec533cd6b0c0515dfa4ccf1880016cdecbf2b8c6f6e3a9941",
    (7, (2, 3, 4, 7)): "3ab21cbc7f1924ba0abac9bea28b0e2a8165916ccef10ad136004a27f6316aa7",
    (7, (2, 3, 5, 6)): "7c9c3fbd63ee2a0e49be64d5b498fc7886bf226b004fd3cc2317a69aaca62b9e",
    (7, (2, 3, 5, 7)): "48a675353cde597f16eef56b5738fe22a71cb83695820679f377b1322bcb7056",
    (7, (2, 3, 6, 7)): "22e9705de421306e930f5c3bd7cc4a1de98546e555cbd174e5b0ad17f7800802",
    (7, (2, 4, 5, 6)): "508b31923e7691064521b6468b735b75a1f2bc9c31c220d326c34c91f312f624",
    (7, (2, 4, 5, 7)): "f70ee9543ea6a679ef3900f9e5736aecbc9451288b19ff3e6cad298d6b493361",
    (7, (2, 4, 6, 7)): "f1636cff45ef2a5b7009ce2b40353fa340143c9a08ff16b9a5b998c19bdb4469",
    (7, (2, 5, 6, 7)): "35d1d34c7fa91258c8c5b3215601d7b90fb6cdc263566c8f16d82e2cee47d178",
    (7, (3, 4, 5, 6)): "ba4213c67d687579ccdf977b48babb19d247c390b45d7c12b5859abd1cc37f6c",
    (7, (3, 4, 5, 7)): "585f9711cc92fadbbafcfa4c697a0312ef18d8301bfe678c90a26d9b52053ff8",
    (7, (3, 4, 6, 7)): "fd59eef181cfaf6cba5f35f5f039156e806d64e87736890f039ba0c5c5e4e581",
    (7, (3, 5, 6, 7)): "6c3f4a63a5b6a71921a2c8af9f6fea4cee403d854755c003df5633e72bb51e15",
    (7, (4, 5, 6, 7)): "dd78962ced7177cd1ab0c45d2ca6df384a70472cb0915ce7eb14e902f304e03f",
    (7, (1, 2, 3, 4, 5)): "5388be0d3ca953561fa3ebccf1268c097a5ef661d9e215b9e60c4e0e4191c01f",
    (7, (1, 2, 3, 4, 6)): "13e6cf4c3e30fe6fd9a0baced34e1d8a0cce8d8b2425829235ce990327f41f22",
    (7, (1, 2, 3, 4, 7)): "15591adceedd35a711176e41f0bd4f275d68b6e7b0d003deb33e0a6619fbfbcd",
    (7, (1, 2, 3, 5, 6)): "c41a537863d5c9fe623ffcf3b3f1c7aa8e8d0d8073bf316d06982683ae7f5e02",
    (7, (1, 2, 3, 5, 7)): "321872ba9c7aa0b845cc7754a6c7fad5db6e374c57778d7ae422df789426bf33",
    (7, (1, 2, 3, 6, 7)): "e7b3606f9be8a5fced8f7c750a021aa492078115aa60305f8694fc87b4a5302f",
    (7, (1, 2, 4, 5, 6)): "a166713b2af663fe7be9e4e9ad73d7473f4fd21d10cb7ec62de9924fa5d4baf7",
    (7, (1, 2, 4, 5, 7)): "9a64b07ef5f345c9d419984060f127acf9b70218e1037cf3b30a699ef19a0ee3",
    (7, (1, 2, 4, 6, 7)): "f0552004bd26b70f3cfd285aa1f7737231526570e3e2512d32d5f85a11bf6ee4",
    (7, (1, 2, 5, 6, 7)): "51c630cde6520fcc86423b54c530ecdf2ca38f119c3d4596b97b99c4672bd5b6",
    (7, (1, 3, 4, 5, 6)): "7988a5d21539774d0a89fbad978f0e5b6bdd03c297866128439004c4bb91e58a",
    (7, (1, 3, 4, 5, 7)): "36cf3a4cbb8fe5447b34a78d329c845870daae567945631d638844a189236253",
    (7, (1, 3, 4, 6, 7)): "1a389bd0cc1f55a13e96ece7fa672e5b18511769246c7c60e9c11821da0a3ae4",
    (7, (1, 3, 5, 6, 7)): "5ce41b30dcce7cfa1550452487fd9c4eb138165d3d44c3bd7f444dd2f7a3017d",
    (7, (1, 4, 5, 6, 7)): "49fd6dfaa187186c9e608e5beb3d2e9504c69041e3a5c69c6552117671ba980c",
    (7, (2, 3, 4, 5, 6)): "786bb0e8824ddc896d80c90e68cb48741c5c5ebfc543b76b6a054a946a4c396c",
    (7, (2, 3, 4, 5, 7)): "dc36f153591423ac609be44224ed1d85caa5b7f5dfa7729252bcce588578c976",
    (7, (2, 3, 4, 6, 7)): "54f57fb3edb2017014d574c9260c998662878c2b38ad46404bbe79b66371daa9",
    (7, (2, 3, 5, 6, 7)): "ffb3609e79177fbdf2d20c5bdd2cce5ed8f8e33a69377c45dbec5fe45a3221a5",
    (7, (2, 4, 5, 6, 7)): "6dc4df54cca27439e92dacb9f7edc0c4efb6c83fb9ce1c0cdb8f0be8bd1f0f00",
    (7, (3, 4, 5, 6, 7)): "53caf3d54a44e73ea00ecb05aa959f77492d341a1297e2fb7cd4c3bc34bda56f",
    (7, (1, 2, 3, 4, 5, 6)): "bfda5c9e8ff5ce2e74124a1136d2a8dd98255a3720666b9e6c81795837c5e41c",
    (7, (1, 2, 3, 4, 5, 7)): "44e9fb2b8f4e4254f1908794be55565108604d198881aff80e0c4018d1aa0fb7",
    (7, (1, 2, 3, 4, 6, 7)): "30e5aa8017fc13a200714aac73eaedd48c990f9b880555ac9069d1f3bf37b88c",
    (7, (1, 2, 3, 5, 6, 7)): "d610af3cf82b477955a2aa1e3e5d8f623e2b84d0c618c214dba45174abc12704",
    (7, (1, 2, 4, 5, 6, 7)): "a2936c6ee3c113932387ea8d5f0373fda33034dd1c9bbb331a5de9aebe9ebbe7",
    (7, (1, 3, 4, 5, 6, 7)): "27810d0a0c5f94c777cb9e0d5109703eaa0fd97ce135ade753c7677a6c1e12ea",
    (7, (2, 3, 4, 5, 6, 7)): "d3c8e83f265cc0e6ecb2e02ccc62b7dd1f94fcd1827c577cfcb1a6baedc14252",
    (7, (1, 2, 3, 4, 5, 6, 7)): "21bb5cc18d637a41c9271336e97097097a370d7854dd74d5df0928ecaf28554d",
}


@pytest.mark.parametrize("n, levels", list(HAMILTON_QJ_SAMPLED_DIGESTS), ids=repr)
def test_sampled_hamilton_qj_paths_are_pinned(n, levels):
    g = QJGraph(n, levels)
    verts = host_of(g).vertices()
    rng = random.Random(3)
    digest = hashlib.sha256()
    for _ in range(40):
        s, t = rng.sample(verts, 2)
        digest.update(repr(hamilton_masks(g, s, t)).encode())
    assert digest.hexdigest() == HAMILTON_QJ_SAMPLED_DIGESTS[n, levels]


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
