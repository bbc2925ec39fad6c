"""Golden CLI bytes: the SHA-256 of stdout of `verify` (text and JSON) and
`lattice` for every `construct` kind, plus `plot` of a non-triangular
`--lattice` input.  The digests pin the exact output, so a change to how
the kernel lattice is stored or reduced cannot alter what users see."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from quasicross import make_cyclic_splitting, to_json
from quasicross.cli import main

# (name, construct argv); orders up to Z_1024
CONSTRUCTED = (
    ("z25", ["cyclic", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1"]),
    ("z343", ["cyclic", "--p", "7", "--ell", "3", "--kplus", "5", "--kminus", "1"]),
    ("z625", ["cyclic", "--p", "5", "--ell", "4", "--kplus", "3", "--kminus", "1"]),
    ("gf25", ["field", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1"]),
    ("gf343", ["field", "--p", "7", "--ell", "3", "--kplus", "4", "--kminus", "2"]),
    ("z16", ["two-one", "--ell", "2"]),
    ("z1024", ["two-one", "--ell", "5"]),
    ("z5x2", ["mixed", "--p", "5", "--ell", "1", "--kplus", "3", "--kminus", "1", "--k", "2"]),
    ("z25x2", ["mixed", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1", "--k", "2"]),
    ("beta2_3", ["balance", "--beta", "2/3", "--index", "1"]),
    ("beta1_3", ["balance", "--beta", "1/3", "--index", "5"]),
)

# hand-written splittings: a non-tiling packing, a non-generating set,
# and a cyclic set whose first splitter is not a unit (general kernel)
WRITTEN = (
    ("z17_packing", make_cyclic_splitting(17, 3, 2, [1, 13])),
    ("z8_index2", make_cyclic_splitting(8, 2, 1, [2])),
    ("z16_nonunit_first", make_cyclic_splitting(16, 2, 1, [4, 1, 3, 5, 7])),
)

GOLDEN = {
    ('z25', 'lattice'): "6930261d0db4ae88737a0a4d50e7abed210215540df5fef5aae429aea7464628",
    ('z25', 'verify'): "49e46c83a8af8eb6c8e22a3d7cba0091926e122f31cfafec9cb38141d35bef20",
    ('z25', 'verify-json'): "f8bc4a04550c55acf282f0c191e98db168db45399ffb3eb66fb8770e2dda98d7",
    ('z343', 'lattice'): "1c290bd19c7606d07369cd544066c0451d6707d7820bf4fe0ded8de5ecfc6908",
    ('z343', 'verify'): "68bce967c6d10339eeace3b2e53b134c6047e3af3a6d0b9d74e031d35f71ea7b",
    ('z343', 'verify-json'): "dfc792b503357cd70098ef54444c97ddc39da14eee5550b83bb27ff3546a1ed9",
    ('z625', 'lattice'): "35962763891b14f9fb0d5c580ba8f5c7405a362f764a634a14f6a55e5c0311ed",
    ('z625', 'verify'): "cb8776b43cd22ba118e1abd4264414cc0c9cc7e77d57537d4bc22003488e1706",
    ('z625', 'verify-json'): "39c592eeff91c50cf7419fffa5bff22969967a2ffd98d6ff2f310fdce5788825",
    ('gf25', 'lattice'): "0816fed72cb4db98422d4d76d87f50a83f522c49c169e66a8323cf02d85395ad",
    ('gf25', 'verify'): "4eaa8fcc42733ae723f440b433cc86064db29cfb6a6c31198dce30a2d80cc0f3",
    ('gf25', 'verify-json'): "3534126791a46947f29c26d7c33a8d3252d9be7f37b4ed9ed409e5e46c025fa6",
    ('gf343', 'lattice'): "38ceb2cfea12932f93dfa565ac95103539fcce28993d30261c463efc2ccbfa94",
    ('gf343', 'verify'): "25fec2fa8ca0e5ce691f023447aac7e9b22e56d383590ad1c5fb09f44b209c17",
    ('gf343', 'verify-json'): "d20b2e7ea9b2040bb313046598a364260f3115da2d214dcd32d4897112cb8fe0",
    ('z16', 'lattice'): "bec63c972ffdb7383f9ce84ecbd85240bde8876f651385c539ce0fc15130553a",
    ('z16', 'verify'): "c9bd26c57b047678b3fb447d8116e93c72837d6bcedc0c31d2d3d52c406dcdfc",
    ('z16', 'verify-json'): "e8c1b2a66316ede18637c198b3aada36f2bd6a1c5500046c60717a4f73af37a4",
    ('z1024', 'lattice'): "cdb87d8b4ac78fb9184a4e2a2d81a438ed50936c270425381a8772aed213285c",
    ('z1024', 'verify'): "7931fb4aed01c2319223d59cb4d2a9da96f4bb692e124c7c160d3017dc2f744b",
    ('z1024', 'verify-json'): "002d8134d4062709076c1150e77378eb54cbc57bcd6703fb03e0bd59caf2862f",
    ('z5x2', 'lattice'): "e5d0bee20b9a57122131d9162f1fab2824b91c6fe61f3e66a483f7cf1c53a439",
    ('z5x2', 'verify'): "4eaa8fcc42733ae723f440b433cc86064db29cfb6a6c31198dce30a2d80cc0f3",
    ('z5x2', 'verify-json'): "3534126791a46947f29c26d7c33a8d3252d9be7f37b4ed9ed409e5e46c025fa6",
    ('z25x2', 'lattice'): "dd4ed05716d4940f4344e1f6b70acd3f889e18779d52872afcc9315eb43253d8",
    ('z25x2', 'verify'): "15286305de0d0287d4562eae54136efea703f0ba56b155530785d25a34148bbe",
    ('z25x2', 'verify-json'): "7d2fa050a6470101f4a07e3228cb669ad11cfe9f1bea803889a902b8f4687150",
    ('beta2_3', 'lattice'): "9db6c1a1cb4db619015956ad3ec115d0ed888aa3dc17bacc2e9c6e312dabde4e",
    ('beta2_3', 'verify'): "6b1531e91bc8c2fd9289a8d226cc9139f4f4e8b7232352a0251e4cec562d97e2",
    ('beta2_3', 'verify-json'): "2db63f96d9dab98da1faeafbce2595867359c1b7c3c1c7e9932dfc7830a47c01",
    ('beta1_3', 'lattice'): "1ade38dcd6ea72e94eae317faf9428dbb4899a1cf1fc56268ecf8ddbf3054cd7",
    ('beta1_3', 'verify'): "2a0cec65c5ba5fdcca1a249037700ce699eaaf332679a2ac3cf73777e834a714",
    ('beta1_3', 'verify-json'): "fd4adffeecc5fdd427343ab1f6ea7a9ecafebc29c5e1c5641d974c3b1cddf03e",
    ('z17_packing', 'lattice'): "16a4ba076e0925a8e0bf6b3cb9e93deca724a930947ee0c1dea641533e20053a",
    ('z17_packing', 'verify'): "3f2a358672dbd79a44437fbccc436f95d3def450f59a52c0ba5d31a6f1ce8757",
    ('z17_packing', 'verify-json'): "fdf146b98d4e674618148665d9e0ff93f78a07587632a3c3bef6a472d32b297b",
    ('z8_index2', 'lattice'): "81a47825e9362333581356638c84cba7161e03f15931469be8d4523762c48f9f",
    ('z8_index2', 'verify'): "646bc817b036b9ff21f30b5869196f65f932be55da2935645c1842601377040c",
    ('z8_index2', 'verify-json'): "c30acb831161eb179bc27e3b8444cd2bc3bc37e0f8d76e0ead4aa3a28bcba0e9",
    ('z16_nonunit_first', 'lattice'): "ef6b3be743ec87d036a5170ac44a178d004393df4f0fa05863fd04e7ecc5c076",
    ('z16_nonunit_first', 'verify'): "38286907430544becc970bd99164a7054328b63098035e9270685fdca8bbcda7",
    ('z16_nonunit_first', 'verify-json'): "3293f924362a249f3aecf9418af33ad2d1bcb995d3cb39aec43ea8b8372ea929",
    ('lattice_4_1_3_5', 'plot'): "a8e2f53a1fe471e900ead9356e95559ee79e5aba1155579897bdda1cc6d53298",
}


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def splitting_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    files = {}
    for name, argv in CONSTRUCTED:
        files[name] = root / f"{name}.json"
        files[name].write_text(_stdout(["construct"] + argv), encoding="utf-8")
    for name, sp in WRITTEN:
        files[name] = root / f"{name}.json"
        files[name].write_text(to_json(sp), encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


COMMANDS = {
    "verify": lambda path: ["verify", path],
    "verify-json": lambda path: ["verify", path, "--format", "json"],
    "lattice": lambda path: ["lattice", path],
}


@pytest.mark.parametrize("name", [n for n, _ in CONSTRUCTED] + [n for n, _ in WRITTEN])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_cli_bytes(splitting_files, name, command):
    out = _stdout(COMMANDS[command](splitting_files[name]))
    assert _digest(out) == GOLDEN[(name, command)]


def test_golden_plot_non_triangular_lattice(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text('{"basis": [[4, 1], [3, 5]]}', encoding="utf-8")
    out = _stdout(["plot", "--lattice", str(path), "--kplus", "3", "--kminus", "2", "--window", "6"])
    assert _digest(out) == GOLDEN[("lattice_4_1_3_5", "plot")]
