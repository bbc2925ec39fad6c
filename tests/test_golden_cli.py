"""Golden CLI bytes: the SHA-256 of stdout of `construct` of every kind,
of `verify` (text and JSON) and `lattice` on its output, plus `plot` of
a non-triangular `--lattice` input, and of `encode` and `decode` (text
and JSON; a corrected, a clean and an uncorrectable word) on a code of
every kind; also of `bounds` (`--n` and `--q`, text and JSON, ruled-out
and open), `search` (text, JSON, `--raw`, `--first`, both) and the unpruned
survey CSV, on a small grid, the default one and the one to q = 200.
The digests pin the exact output, so a change to how the kernel lattice
is stored or reduced, how the codec computes, or how a construction,
rule or search result is assembled cannot alter what users see."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from quasicross import from_json, make_cyclic_splitting, to_json
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
    ('z17_packing', 'encode'): "88d13136336b43087e281101d26eab1d714b48e0ab32f4d55ea8d45f71112778",
    ('z17_packing', 'decode-corrected'): "ad250555d7ab178bfb8da7fcc3d74f83efcce4fb60b39c12ec6f10a401a86bdf",
    ('z17_packing', 'decode-corrected-json'): "f3d8ffc646e57497a33d5ad280d8462117b8c15c126672930706385f3a867586",
    ('z17_packing', 'decode-clean'): "e1831b636c6e62176da926afce4a2766474b034812203572d07087b9d9656313",
    ('z17_packing', 'decode-clean-json'): "d601204b0db93a3faef9058d0c81e1d289d284ff1164b0591f0de28571e7b718",
    ('z25', 'encode'): "51f97e218df5ba6a6613a66d45c716c3aa073ee795be8b5b0541b7ac961cd42d",
    ('z25', 'decode-corrected'): "70068f3256f7fd0b079342466b238ddd053cc41b90a5414fb28046795d00f06a",
    ('z25', 'decode-corrected-json'): "7a5463907297c92348c02b7192538342c81869f93f944aaff7d6cf96a76c9c68",
    ('z25', 'decode-clean'): "2af68b1284eb12a95d55e25db323de959361ecbab56a8060e8239c33bda28c6b",
    ('z25', 'decode-clean-json'): "45af8b70269d62b9d2323150c50e4a7a73e3e51107abf5d84eba7995dfbc285a",
    ('z343', 'encode'): "87d33364e212a7b09d850898d91d4115a3fe4a4d783010a2210b2e9115a83730",
    ('z343', 'decode-corrected'): "055899abe4e42436bef3ee3f025384d2b12db5a428ae987aafbb8c13b0ef987a",
    ('z343', 'decode-corrected-json'): "eddb589dfc62464ab6b7cc76c9ddaeaa92b2c1de08e1737d14a38eec36f13cb8",
    ('z343', 'decode-clean'): "ed7235f2eda143869244bedf03b97cf713851f44d98d866dbb8216415287b991",
    ('z343', 'decode-clean-json'): "ef49e8a6de08abb307f9bd16cb4f45703e239256a7b36875025dedfa71de12c2",
    ('gf25', 'encode'): "2fc974bff89a0347410e4084192249b554a55b81eb969560a4e3d756384f064f",
    ('gf25', 'decode-corrected'): "5112ddd8e3439f9408a7248a793115389d1b724825d9609215526eb7c59af175",
    ('gf25', 'decode-corrected-json'): "23dfd14d3b5605607e708a37536fbf8b6a154afe454a063f34497edeb70d3035",
    ('gf25', 'decode-clean'): "60a3cf05f638897e236f4fbbcbc536b5d6e614f1126d241ba362641fee42827e",
    ('gf25', 'decode-clean-json'): "10c23c278cd690fc47e2562cc1de331410fedc804e276bb200ee528aee761288",
    ('gf343', 'encode'): "b9645e0ac93d10836c6e9ac15ffdb5ce5e586ec5d1ca1b7bbdc3668ef4f474f2",
    ('gf343', 'decode-corrected'): "4984bed486cdf0f0571e1ae8aa7678ca6fc0c383787c37d9cdb17693bbb54464",
    ('gf343', 'decode-corrected-json'): "37fbfd04398a29f2e89015f81672eb0d21adfc6e0edc56bbb75ecb2ab2df4e57",
    ('gf343', 'decode-clean'): "ac127231c1913f16ad72f87fc9175f804cfb5eadddb0b4b6e8b90921fd034405",
    ('gf343', 'decode-clean-json'): "58bc16a7ae433e60ed10ebdcf8c2dbeef499c2adfb7c540204f4f5bd0a19bf31",
    ('z16', 'encode'): "6e81245617807841525e3655077a1c273230b36204eb0cff04748d7d789217c9",
    ('z16', 'decode-corrected'): "f89e9e4cb9bbabe5dbd152e4c04d220ae03b0b82ebc797e23eb67f29347bca63",
    ('z16', 'decode-corrected-json'): "a5cf61ab8c0923984bd0d23000720c611877d6c32fefc520fd1c1a0d34d5abed",
    ('z16', 'decode-clean'): "7a5af43e5f439fd407075f1544fcd31e7c13b5c23700e1222a4f25fa60df9026",
    ('z16', 'decode-clean-json'): "680c34ca697f08a3ed5b35c3b1a5f059c31d9f4ab30a0a216eea32ddfc79f148",
    ('z1024', 'encode'): "82d0ffa8bb6f63f38d1058d688e75ac1711b58af590e30017cc9ecbdcded47b6",
    ('z1024', 'decode-corrected'): "f825bebe1aa77611dbf302b7b830cabfcf3da6b1ccf26a8db4f54d8620f179e2",
    ('z1024', 'decode-corrected-json'): "e2d963cc4761cded7696ca80d2a7ad561457953e64ac57d42ae1dc384ed34abe",
    ('z1024', 'decode-clean'): "06922f9807553e4fc7c68e0fc40729f4cc9c7fdae709d97888015a9e95b9ba13",
    ('z1024', 'decode-clean-json'): "946f7858b12026f7eb3791eb31d628ec40be871379cce2417a1a9387bd6672de",
    ('z5x2', 'encode'): "90f91dd3b7a4909bdb4652b7774468d9e97ddc68dcfd48bf20350fa1c43b6cbf",
    ('z5x2', 'decode-corrected'): "4444dae9b92e45d6aadadaef5b919a72c240fab1d01d088d9ee3fd36128b4e3d",
    ('z5x2', 'decode-corrected-json'): "6e0b8e19565923f54784245b5b87762a8fdeee852cc4253e60c3cb6d22eec839",
    ('z5x2', 'decode-clean'): "d4a4459ba27c029cb336769d8fd35e989715004bc04be0dfadbb58b2dab26681",
    ('z5x2', 'decode-clean-json'): "74f0e7b46a46b93936be67b8a3d593dda95e7aaa9a6fcec4d525c5f673ae00c3",
    ('z25x2', 'encode'): "67dcee1c2d007e5c0a381914360e4fb930e7aaa570c467c91018e6539c293c84",
    ('z25x2', 'decode-corrected'): "2ceb77128b0b934b36176a415b2ffcc11c0f882fe170de2890b037e96fa134ad",
    ('z25x2', 'decode-corrected-json'): "3c35c2ca67118f66135fb425268850efe98d0e34ecbeee0e01f9c11175aaf1b7",
    ('z25x2', 'decode-clean'): "b11deffd19dcdcf4165432c195d67ce57e14952d716840bcc6114ca83836e3bd",
    ('z25x2', 'decode-clean-json'): "a52acbd70f1a82e42217fa8b2f86ca1c16174173531edfd895523836f96097cb",
    ('beta2_3', 'encode'): "25d4f2a86deb5e2574bb3210b67bb24fcc4afb19f93a7b65a057daa874a9d18e",
    ('beta2_3', 'decode-corrected'): "4543996526e074d57682e1d2fd7cf0c5426a8e6149f5a35a51d8a68838f52b3e",
    ('beta2_3', 'decode-corrected-json'): "36fe80a2068e9842f6e5e120588b4ab49731ab91e43042aac3b9c8645b8cad5a",
    ('beta2_3', 'decode-clean'): "eaaa3aba63455034d61c8940de0c76179e2a0b2e0b6821c45f04523b42bcc085",
    ('beta2_3', 'decode-clean-json'): "27ee9a8f85b4ec913190d5bea47da59024daae088b62acda12d4acd73bc798fc",
    ('z17_packing', 'decode-uncorrectable-text'): "193549a9740589dff04854b73163880e1b5e5fcefb0a2e32863b310aca34d8fe",
    ('z17_packing', 'decode-uncorrectable-json'): "7d2ef13892387f7943923406a46f6ec81eae0c8f479196326c5653aa212b317c",
    ('z25', 'construct'): "c4f863986b27e72e9575414ae6fc563fe19f89a39140b4dd444aff92e1931522",
    ('z343', 'construct'): "b1174b280145de6734e0633b63a0b440972b04e13cd40140daf80f5a0beaf286",
    ('z625', 'construct'): "3dabc5b3dd11a27bd3e06787117c4b80a34416668f720f33473fd8627c95b865",
    ('gf25', 'construct'): "3bfcb362ea39af3b0f96afe309ae7368dae93b404692ad4aa6479b012c29555d",
    ('gf343', 'construct'): "2ba27a3581e6a0dc051b17c0c9f813fc4a7da46b41da135f98e131d0b79a46fc",
    ('z16', 'construct'): "335dd687b46296135ed695d42f0f91595d936a16daac3108b6819562e226ff41",
    ('z1024', 'construct'): "f7d8925d2af96386883c35d5886ead92126b9a014ec651a6a1b1c41aff4b636c",
    ('z5x2', 'construct'): "1c7508227fc12e1c56a082801adff0ab3a6cde23cb0eea28a8d3883aec2e1b2f",
    ('z25x2', 'construct'): "afc2e47c0bea49a66e41fd4eb677526a1cde2887a3b686129fcc6b3f12ddbded",
    ('beta2_3', 'construct'): "95e0dc3730ed8bde8462c7c775886a5d208e1205bae4db34d3856966698a073d",
    ('beta1_3', 'construct'): "67ab32b14293c3318885985d7a0891831f0a535ca553abd36709b5248a477bfe",
    ('bounds-n-both', 'text'): "a00c4c50951791f353c0a305ca5d7391f1b133e5bb4697922b93acc3e3d6cbcb",
    ('bounds-n-both', 'json'): "83b297d3436b4a37f8b89d0a9cc9d95b33162837bf7772356aaefc1c59f4160a",
    ('bounds-n-dimension', 'text'): "00d8965e3ac19165b4b58c3b876d70e1da8c5836eccacfec262bb4c9df6635b9",
    ('bounds-n-dimension', 'json'): "2b44d853fa8563106610725f08d841cca8895eae986f05671c0096d589c68b8d",
    ('bounds-n-open', 'text'): "7e68c731fd9009eb8b1fde0cb26e635fdb5b90214132fad78f525a5b60ebc570",
    ('bounds-n-open', 'json'): "994cfafa29c251b104300e8cc15e1f1bfbcec7fa7db7bc58c8e81512ef430687",
    ('bounds-q-order', 'text'): "4278973ce1cec38ac8367c4fe6efe44d48974a044d400754182db6e3f872b745",
    ('bounds-q-order', 'json'): "b08bb342d92f39a8f2e77018fe03474ce0e3a9ef7910176d10c4522eeb58a7c0",
    ('bounds-q-shape', 'text'): "e9b5311db3b26578efe53b89beb7d8f9d44547d2f051c1c3c34bca3b844f2166",
    ('bounds-q-shape', 'json'): "f48555c7378701d4cf53010e7e37069f7c99151dcfcce45bd8a837d3a5022a48",
    ('bounds-q-open', 'text'): "7e68c731fd9009eb8b1fde0cb26e635fdb5b90214132fad78f525a5b60ebc570",
    ('bounds-q-open', 'json'): "8961a8afcef81609b6c8f2b3c5732cfc38eb95ef3ce14f968d40cf2f2fd9aade",
    ('search', 'text'): "4181a7293e6f1adf586d8a7c480158e78e16a953eabcadfcd33e89fa8f4f25a9",
    ('search', 'json'): "09e0fafe7bd00c75baa5d66bf2040c7bba559e9684d6a59fcb331765cca19dc6",
    ('search', 'raw'): "d85dffc9535bc7782054e3abb0babc6e37960709c3d512ebf87834a6255c1c92",
    ('search', 'raw-json'): "2a29f97b2b5ded06f0ba48be45ee309caae3553636032938a1deff08d502983d",
    ('search', 'first'): "f3b315fed9b6d15ac5ef71f1d74aaafbce8c2ca3362f0680374d0c696f58558b",
    ('search', 'first-raw'): "cad4d637bedde6029bb645e507a21f661ca9a7d52308e69cca839e1b90df6379",
    ('search', 'none'): "25960863a628eafa01572aaf47ba8ed53e3a9e43c95c99676bb539da654fe53e",
    ('survey', 'no-prune-kmax4-qmax40'): "3766105b823b3dd5447a261459d5c1a98984e43fca0f75d7c14db74ff7223a24",
    ('survey', 'no-prune-kmax10-qmax100'): "a493affda1ad5c08d077b38f70495093da4d30d32d09e92c26d3cecbcd350afa",
    ('survey', 'no-prune-kmax10-qmax200'): "63c17259e0d31a54c54b97146823187844e4c945a5d901afda0c90c8558f95ee",
}


def _stdout(argv, expect: int = 0) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == expect
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


# (name, levels): levels above the group exponent exercise the pivot
# quotient digits; beta2_3 has n = 1, so its information part is empty
CODES = (
    ("z17_packing", 34),
    ("z25", 50),
    ("z343", 343),
    ("gf25", 10),
    ("gf343", 7),
    ("z16", 32),
    ("z1024", 1024),
    ("z5x2", 5),
    ("z25x2", 25),
    ("beta2_3", 22),
)


def codec_argvs(path: str, levels: int) -> dict[str, list[str]]:
    """The `encode` argv of one code, and `decode` argvs of its codeword
    sent clean and hit by -k_minus at the middle coordinate."""
    with open(path, encoding="utf-8") as fh:
        sp = from_json(fh.read())
    k = len(sp.group.orders)
    info = [(i * i + 3 * i + 1) % levels for i in range(sp.n - k)]
    quotients = [levels // sp.group.orders[0] - 1] * k
    base = ["--code", path, "--levels", str(levels)]
    encode = ["encode", *base, "--info", *map(str, info), "--t", *map(str, quotients)]
    codeword = [int(x) for x in _stdout(encode).split()]
    corrupted = list(codeword)
    corrupted[sp.n // 2] -= sp.multipliers.k_minus
    decode = ["decode", *base, "--word"]
    as_json = ["--format", "json"]
    return {
        "encode": encode,
        "decode-corrected": decode + [str(x) for x in corrupted],
        "decode-corrected-json": decode + [str(x) for x in corrupted] + as_json,
        "decode-clean": decode + [str(x) for x in codeword],
        "decode-clean-json": decode + [str(x) for x in codeword] + as_json,
    }


CODEC_COMMANDS = ("encode", "decode-corrected", "decode-corrected-json", "decode-clean", "decode-clean-json")


@pytest.mark.parametrize("name,levels", CODES, ids=[n for n, _ in CODES])
@pytest.mark.parametrize("command", CODEC_COMMANDS)
def test_golden_codec_bytes(splitting_files, name, levels, command):
    out = _stdout(codec_argvs(splitting_files[name], levels)[command])
    assert _digest(out) == GOLDEN[(name, command)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_golden_decode_uncorrectable_on_packing(splitting_files, fmt):
    # syndrome 6 of Z_17 is no product m*s of the packing {1, 13}
    argv = ["decode", "--code", splitting_files["z17_packing"], "--levels", "17", "--word", "6", "0"]
    out = _stdout(argv + ["--format", fmt], expect=1)
    assert _digest(out) == GOLDEN[("z17_packing", f"decode-uncorrectable-{fmt}")]


@pytest.mark.parametrize("name", [n for n, _ in CONSTRUCTED])
def test_golden_construct_bytes(name):
    argv = dict(CONSTRUCTED)[name]
    assert _digest(_stdout(["construct"] + argv)) == GOLDEN[(name, "construct")]


# (name, argv): ruled out by both shape rules, by one, and open, for
# --n; ruled out by a group-order rule, by the shape rules, and open, for --q
BOUNDS = (
    ("n-both", ["--kplus", "3", "--kminus", "2", "--n", "2"]),
    ("n-dimension", ["--kplus", "5", "--kminus", "1", "--n", "2"]),
    ("n-open", ["--kplus", "3", "--kminus", "1", "--n", "6"]),
    ("q-order", ["--kplus", "2", "--kminus", "1", "--q", "10"]),
    ("q-shape", ["--kplus", "4", "--kminus", "3", "--q", "22"]),
    ("q-open", ["--kplus", "3", "--kminus", "1", "--q", "25"]),
)


@pytest.mark.parametrize("name", [n for n, _ in BOUNDS])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_golden_bounds_bytes(name, fmt):
    argv = ["bounds", *dict(BOUNDS)[name], "--format", fmt]
    assert _digest(_stdout(argv)) == GOLDEN[(f"bounds-{name}", fmt)]


SEARCHES = (
    ("text", ["--kplus", "3", "--kminus", "1", "--q", "25"]),
    ("json", ["--kplus", "3", "--kminus", "1", "--q", "25", "--format", "json"]),
    ("raw", ["--kplus", "2", "--kminus", "1", "--q", "16", "--raw"]),
    ("raw-json", ["--kplus", "2", "--kminus", "1", "--q", "16", "--raw", "--format", "json"]),
    ("first", ["--kplus", "3", "--kminus", "1", "--q", "25", "--first"]),
    ("first-raw", ["--kplus", "2", "--kminus", "1", "--q", "64", "--first", "--raw"]),
    ("none", ["--kplus", "3", "--kminus", "1", "--q", "26"]),
)


@pytest.mark.parametrize("name", [n for n, _ in SEARCHES])
def test_golden_search_bytes(name):
    out = _stdout(["search", *dict(SEARCHES)[name]])
    assert _digest(out) == GOLDEN[("search", name)]


def test_golden_survey_csv_bytes():
    out = _stdout(["survey", "--no-prune", "--kmax", "4", "--qmax", "40"])
    assert _digest(out) == GOLDEN[("survey", "no-prune-kmax4-qmax40")]


def test_golden_survey_csv_bytes_default_grid():
    # the full unpruned grid, k_plus <= 10 and q <= 100, that the
    # nonexistence results rest on
    out = _stdout(["survey", "--no-prune"])
    assert _digest(out) == GOLDEN[("survey", "no-prune-kmax10-qmax100")]


def test_golden_survey_csv_bytes_to_q200():
    # 896 instances, among them the singular (2,1,148), (2,1,172) and
    # (2,1,196) that once took from 5 s to a minute each
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["survey", "--no-prune", "--qmax", "200", "--time-limit", "5"]) == 0
    assert _digest(out.getvalue()) == GOLDEN[("survey", "no-prune-kmax10-qmax200")]
    assert "  no instance is both ruled out and tiled (rules consistent)\n" in err.getvalue()
