"""Golden stdout digests: enumeration in rows and histogram mode, and verify.

Each digest is the SHA-256 of the command's stdout, recorded before rows mode
moved onto the insertion engines; the output must stay byte-identical.  The
capped verify digests, recorded before the verify suites became one check
table, run with the family caps lowered, so that small runs reach every SKIP
line and every fixed n range of the verify suites.  The symfunc, refusal and
auto-mode digests were recorded before the enumerate families became one
table; the refusals run with the caps lowered too.  The Stirling histograms
at n = 7 and 8 were recorded before the pair tally walked classes of words
in place of the words.  The rooted rows at n = 7 were recorded while every
rooted row still decoded its own Prufer sequence.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io

import pytest

from gamma_forest import binary_trees, cli, rooted_trees, stirling

FORMATS = ("text", "csv", "json")
ROW_CASES = [
    (family, stat, fmt, n)
    for family, spec in cli.FAMILIES.items()
    for stat in spec.stats
    for fmt in FORMATS
    for n in (4, 5)
] + [("rooted", "des", fmt, 7) for fmt in FORMATS]
HISTOGRAM_CASES = [
    (family, stat, fmt, n)
    for family, spec in cli.FAMILIES.items()
    for stat in spec.stats
    for fmt in FORMATS
    for n in (5, 6)
] + [
    # one below the Stirling cap and at it
    ("stirling", stat, fmt, n)
    for stat in cli.FAMILIES["stirling"].stats
    for fmt in FORMATS
    for n in (7, 8)
]
VERIFY_FORMATS = ("text", "json")
LOWERED_CAPS = {rooted_trees: 3, binary_trees: 4, stirling: 3}
CAPPED_CASES = [("all", 5, fmt) for fmt in VERIFY_FORMATS] + [
    (suite, 22, fmt)
    for suite in ("drake", "gamma", "combs", "lyndon", "stirling", "eulerian")
    for fmt in VERIFY_FORMATS
]
SYMFUNC_CASES = [(fmt, n) for fmt in FORMATS for n in range(1, 6)]
# one above each lowered cap
REFUSAL_CASES = {
    "rooted": 4, "normalized": 5, "combs": 5, "lyndon": 5, "stirling": 4, "symfunc": 5,
}
# normalized trees: 11!! = 10395 print as rows, 13!! = 135135 as a histogram
AUTO_CASES = [(fmt, n) for fmt in FORMATS for n in (7, 8)]


def row_argv(family, stat, fmt, n, mode="rows"):
    return [
        "enumerate", "--family", family, "--stat", stat, "--format", fmt,
        "--n", str(n), "--mode", mode, "--threads", "1",
    ]


def auto_argv(fmt, n):
    return ["enumerate", "--family", "normalized", "--n", str(n), "--format", fmt, "--threads", "1"]


def symfunc_argv(fmt, n):
    return ["symfunc", "--n", str(n), "--format", fmt]


def refusal_argv(family, n):
    if family == "symfunc":
        return symfunc_argv("text", n)
    return ["enumerate", "--family", family, "--n", str(n), "--threads", "1"]


def verify_argv(fmt, suite="all", n_max=5):
    return ["verify", "--suite", suite, "--n-max", str(n_max), "--threads", "1", "--format", fmt]


def stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


def capped_digest(argv):
    with pytest.MonkeyPatch.context() as mp:
        for module, cap in LOWERED_CAPS.items():
            mp.setattr(module, "DEFAULT_CAP", cap)
        return stdout_digest(argv)


ROW_DIGESTS = {
    "rooted-des-text-4": "1eb5c897a5cd7e652dac49b1283c2cd459d0d34bdaa9210f1f3c0d3d1e2c1120",
    "rooted-des-text-5": "eefc33c34dc05283900d160eaafedb0b7f1d27783f22e2f7fec6cf5b4299fdf7",
    "rooted-des-csv-4": "9e47526a29f0c31eadef3236663ec39ab067062e3837124ea07e55b2d17f378d",
    "rooted-des-csv-5": "e2e7aebeb80b57e0060e801baebf7cd404a09152a43d76629dd5543dead4cb12",
    "rooted-des-json-4": "206915354884cdc90ba18ef8120d66ce49a8c415326082862b54726591726506",
    "rooted-des-json-5": "f93b346a442538e3258c01b65f3bbe4514279e5c518a7708d08df22b826f48dc",
    "rooted-des-text-7": "28e1f8cb104a9820e3d24f0ca367c453cd3de010daed33db1c027071f37512b4",
    "rooted-des-csv-7": "ae577ebff73d5583942da6ea4b6d7be4b35f8ea003043c1f0108bd9b820f5e85",
    "rooted-des-json-7": "9b694cfeb5c413e0e48bdebf8fe17ec64687bde760f0c344a4c2a4301c7fa1c7",
    "normalized-rdes-text-4": "84822ed185642a8f503881cf4d7101bcebbda38413ab7b4c971cf9203fbd75d3",
    "normalized-rdes-text-5": "b66ce03fe2f8b6ad91cfe831b468718e189dad75f3e4558aaad693c85a89e019",
    "normalized-rdes-csv-4": "290a40562c52f8f7c07db468fb9fa15278138be8c9b01e082bfdab49f234a24e",
    "normalized-rdes-csv-5": "815764720d2dd88209e7aaff7ff6ea61d5438e1f2dd5f4151e1e558c5314a66b",
    "normalized-rdes-json-4": "536fc899111d73202d1d6d0d39ac108a1ecfb4a2ef95e1abca0575727ca44cb6",
    "normalized-rdes-json-5": "ed3b85375f8a948d65344e5f10fbf9f48d6d52855ba73f24107eb96acce5b490",
    "normalized-nlyn-text-4": "3fb6dcc01b98af0eea731624970f1d0963e3da45de727e81b6e738344e53fee4",
    "normalized-nlyn-text-5": "2f664273b2c357e6e34a96135b6af6bad33639d9205d42591c007bd5b2e8181c",
    "normalized-nlyn-csv-4": "6fcb04e3c8159c1b640d35f7db185424bd8fefe906e2e2431ebb09684f957966",
    "normalized-nlyn-csv-5": "30748208575f763e661f1c94e5776fcdfc060e9dad8cac0761dd9b3f64c73612",
    "normalized-nlyn-json-4": "8702b601adc9cea9a48ba957b73793857883c3e05fa9b857a67a02bfde126460",
    "normalized-nlyn-json-5": "b913c54f31974bbc0738892614eeffbe2dabd13c5383934121b8af018f3d0e03",
    "normalized-free-text-4": "f3ef1f5148a566eec828259b177f983fef966a5397b294e6175a49941473de89",
    "normalized-free-text-5": "81535690c61a17ca2765641836cf10581ff742b24188eafb851f811946b522bd",
    "normalized-free-csv-4": "96ec49a66b211be5f1f7198c0352039d9021da85dd51fc124e67b40df9dedcb1",
    "normalized-free-csv-5": "4553e26049dd7472e514e20e152bcd6d1f708af5c25f9789033382d8a1a922a1",
    "normalized-free-json-4": "3724a80c1914e8e1a7e8476a548c04500db6646211d87635c720d32b8118473d",
    "normalized-free-json-5": "0836d5b64174a0d85b40bd73201935b3553996ab93607e7fa72144ce434044c2",
    "normalized-combtype-text-4": "8c57b0277579fe4b32f5efef0a5870ba325efa2b09eacad4ec7c5ce8d1052f2e",
    "normalized-combtype-text-5": "579e224f1f346087851c30658e0093072902fd7e92dff6ebe9bcf8de2ae40878",
    "normalized-combtype-csv-4": "79ac07d1d85e2be26158edc30c3954542e7db1985bf21418f73a942933355183",
    "normalized-combtype-csv-5": "825268292b1a36780c74976a0f0fb7168fd01e1ba0b07cc088d7e2e1fdb71c0e",
    "normalized-combtype-json-4": "7b09e8958f7566ea1e532f3742e95b6b0b6d2d54602557cef03474bcd3938a43",
    "normalized-combtype-json-5": "f20a6aff913faef24e9dc26b25fdf0ed14cc37d7ddeb8b99eaeb66f44935b4eb",
    "combs-ones-text-4": "91b15e643340c9cb70f1e3a7329703540a0ec080de68509f7afda6d1ba324f83",
    "combs-ones-text-5": "ccf2a00c92bb7da5fb7bc1810168d6522359c919576f722a2c5b33a8d50bd88e",
    "combs-ones-csv-4": "864dbeaf54fd6a0d53b66d52e5abfc0fdab612f285867a961db450811e77dce0",
    "combs-ones-csv-5": "4b270d3d481cca4ceb62989c54ce6548ff28b64f749ccb71284c39a7b8c9c868",
    "combs-ones-json-4": "a71027a446661d8dc3a5e2b16a584e43cb94c6d9e1d3e877c8a53d9a95f7b1ea",
    "combs-ones-json-5": "3e97bb56ad9b341bc7f908b11369128270e7fae04e4af93c7565be365bcfd369",
    "lyndon-ones-text-4": "2b4169a8676e2709524eb8567bfd66748aac219abadf39950a0c8f2d776d3727",
    "lyndon-ones-text-5": "ae49cd8db141453f661c07d334da7549715a31f750f8b170d9930dbddb9d7469",
    "lyndon-ones-csv-4": "5ca0511e2da3bcf516a76bd28e05d2bc629eaa94d8496894d58f7a068435ffc6",
    "lyndon-ones-csv-5": "e1e829b43db9a6c6d977bbf5d5153550e061bc14a1163543b27a51170e702b49",
    "lyndon-ones-json-4": "3746ae700ba9ae53c9d1b2d8070cd37f4690b46c13ac927d768187bef801e3e6",
    "lyndon-ones-json-5": "e88196a5038ae440dc1146c3280131a3a953d421af88b741d8357ed702f2bad1",
    "stirling-aapair-text-4": "25eaec0793d8e1a3244a89dc2dc71907247eba2bfaa8cbc542df040daf3df4ea",
    "stirling-aapair-text-5": "d3f12c6cf43652adc31019e6e9bee023d86743586da2d3cc17e6a0327fa0a4d8",
    "stirling-aapair-csv-4": "320e307ff2fa296e6b09992bdbebbc88bee1101660f989599e19b00109ea6fde",
    "stirling-aapair-csv-5": "f5f0a27df0f23a7423aa15abfc5cf167114c057d9e20c64b2eb67ecba98a5700",
    "stirling-aapair-json-4": "568548763375878ad004a63a49f7b414af54ad3708ccd6b6ff0bf5bf4c1e45e8",
    "stirling-aapair-json-5": "f070efdde4c6c470fc09a5d95f1ae902504cff2a79f5d16ff605942fe8911e5f",
    "stirling-tnpair-text-4": "8700e6b8244bd99ec8f3f2b9f022c1228d69c332118ea8794ae50ebdf7d0c093",
    "stirling-tnpair-text-5": "ad9fd8633ce0ff5bcab0615e1b4194d44190ef1db51925e30d79d598a4594ee9",
    "stirling-tnpair-csv-4": "320e307ff2fa296e6b09992bdbebbc88bee1101660f989599e19b00109ea6fde",
    "stirling-tnpair-csv-5": "f5f0a27df0f23a7423aa15abfc5cf167114c057d9e20c64b2eb67ecba98a5700",
    "stirling-tnpair-json-4": "1c5f5e214ed553dc9652519701aa79f2e18235db7ea957438e3f89540f69911b",
    "stirling-tnpair-json-5": "8c35dd295ed027cb0fb82acb7e66f79b1ca0e336f58edf224df00092e628b510",
}
HISTOGRAM_DIGESTS = {
    "rooted-des-text-5": "fd1b3699cd52d3dc4e7889fac0b7c0fef309d4a7d062aa9ec4f57f3ee8864011",
    "rooted-des-text-6": "b7791f0ce361e4fa69134d1d8791e6cf625d25ab9b76b407cc244a6cf21b9801",
    "rooted-des-csv-5": "3ab739de201789bfc44cac1789736584ccd93891883bd8fa2d81dbae4e6ca824",
    "rooted-des-csv-6": "755bb58d64437e56d0036950a77873fdb50ecdd8c7fc87d589c77e218823b74c",
    "rooted-des-json-5": "ac5b88e52c66154f07fc8991a2bf77855501bd329910632eb888ce4709629f42",
    "rooted-des-json-6": "0da2a716c8baa4f10bb715cca3e2cda746236d291f2db8645b8d1fba69039399",
    "normalized-rdes-text-5": "70bd1a57ec778a04d6e63870d934456b2ff49e017d7b394df7292f7a26997c79",
    "normalized-rdes-text-6": "797f2bec398e8d9815fe8350ce2237be05a17e2d5d536b4f485901ed372d0376",
    "normalized-rdes-csv-5": "a2f9921177d10c1f317fd91721db6b1c61ad3b128fc424e18ccc087db387248d",
    "normalized-rdes-csv-6": "71c3e33a978a92e7f6039242b350c1e994671689b8f0d271599029acc3bb81a1",
    "normalized-rdes-json-5": "04302e7ea5d9596bb088d346e2c9ee68d53cb24728421482f96e48232c9304d2",
    "normalized-rdes-json-6": "69948e4c62053549fbcfc7ed08b6100dda60629c57619b850cc40f6eb4000746",
    "normalized-nlyn-text-5": "70bd1a57ec778a04d6e63870d934456b2ff49e017d7b394df7292f7a26997c79",
    "normalized-nlyn-text-6": "797f2bec398e8d9815fe8350ce2237be05a17e2d5d536b4f485901ed372d0376",
    "normalized-nlyn-csv-5": "a2f9921177d10c1f317fd91721db6b1c61ad3b128fc424e18ccc087db387248d",
    "normalized-nlyn-csv-6": "71c3e33a978a92e7f6039242b350c1e994671689b8f0d271599029acc3bb81a1",
    "normalized-nlyn-json-5": "7785fdef8ef275b7fc83441c0f1b7d8679bfabcc280c0088a7a9ed9b5cca35f6",
    "normalized-nlyn-json-6": "1e1be2cf9475beb034e40d2b07d393da4b8f5182761274ff55045dedaced08cd",
    "normalized-free-text-5": "7bbe2fac443eef32d95398926984351b5c915c506d51ef3d7147820d8c3606df",
    "normalized-free-text-6": "52342cd1003205bf005dcfc26ebbc30daa61fab372523f3247b0998fe64506c8",
    "normalized-free-csv-5": "dcb30946929d9f97714d64cb7c3ec68a1756aee0f1f826125d392d2f2c6dd048",
    "normalized-free-csv-6": "6f673f8814a3d39b026e5a6ad35d33917d6e1f246e32a0d23f5fefd360c85d26",
    "normalized-free-json-5": "09a4bf56f9f6e4fb72ca948ba60320a80058708ee3de5055ce405cbe0ad06820",
    "normalized-free-json-6": "3ad6d81d6a7ede210792c6007f70bd77ed14885b149f5175f3fec1ad2b6955a8",
    "normalized-combtype-text-5": "3078cb02c36b3b180c4f388dfa1462b94e204123b45fa780b1382870f7805a6e",
    "normalized-combtype-text-6": "e016ca3b46477c350f670721bce58647aaa4f07417e38296d0c8e595d0f42592",
    "normalized-combtype-csv-5": "fec45c444a9d04f78f80eb2811ce44f4050364ff14bbaeac86f30918cf4bc0cd",
    "normalized-combtype-csv-6": "2f43fe5ed8b50d9bb99eb64a2665c0beca3cdc552e0f0f74f9c2079102889a99",
    "normalized-combtype-json-5": "2accb3cb81f4fcdd6533f551fd0a9fbb01df6ada92296e38477edafc9e0d255b",
    "normalized-combtype-json-6": "99106f4f76c4c170cedfb76e91e25d513cd4d673048f2e438f0055175894c432",
    "combs-ones-text-5": "fd1b3699cd52d3dc4e7889fac0b7c0fef309d4a7d062aa9ec4f57f3ee8864011",
    "combs-ones-text-6": "b7791f0ce361e4fa69134d1d8791e6cf625d25ab9b76b407cc244a6cf21b9801",
    "combs-ones-csv-5": "3ab739de201789bfc44cac1789736584ccd93891883bd8fa2d81dbae4e6ca824",
    "combs-ones-csv-6": "755bb58d64437e56d0036950a77873fdb50ecdd8c7fc87d589c77e218823b74c",
    "combs-ones-json-5": "b2a93bc92970848ee6402c368fb6f89307e995fc8a0755b0295055de99d618f5",
    "combs-ones-json-6": "6e933aa477a1fedb105132751da7c53ca7f223422f7403542b75f4747304f145",
    "lyndon-ones-text-5": "fd1b3699cd52d3dc4e7889fac0b7c0fef309d4a7d062aa9ec4f57f3ee8864011",
    "lyndon-ones-text-6": "b7791f0ce361e4fa69134d1d8791e6cf625d25ab9b76b407cc244a6cf21b9801",
    "lyndon-ones-csv-5": "3ab739de201789bfc44cac1789736584ccd93891883bd8fa2d81dbae4e6ca824",
    "lyndon-ones-csv-6": "755bb58d64437e56d0036950a77873fdb50ecdd8c7fc87d589c77e218823b74c",
    "lyndon-ones-json-5": "c56d636d87393749cc751bbf15cb0f245288861ff7ce3697f43ec5aae987d780",
    "lyndon-ones-json-6": "c41f38bffd645397a3441eb0966ad3e4d6229cb345fd76ce26accf41f3f1baf6",
    "stirling-aapair-text-5": "797f2bec398e8d9815fe8350ce2237be05a17e2d5d536b4f485901ed372d0376",
    "stirling-aapair-text-6": "c536e3cd7720acbe6122cdab39c52affc53e7f6e000249a0dbba388078aba755",
    "stirling-aapair-csv-5": "71c3e33a978a92e7f6039242b350c1e994671689b8f0d271599029acc3bb81a1",
    "stirling-aapair-csv-6": "412ffd22558168f88ee8c0432b55993b3c5a2d08fdc3f698afcf8c3bad5f706f",
    "stirling-aapair-json-5": "fce9a5cb5ff4a057570c5196c957a85cc7adad27902ea1b1a0575833d122fbd3",
    "stirling-aapair-json-6": "e96532aae7ca3bab034d74dccdd6e67fee5bc220d08f19c4be29ce1e283eee44",
    "stirling-tnpair-text-5": "797f2bec398e8d9815fe8350ce2237be05a17e2d5d536b4f485901ed372d0376",
    "stirling-tnpair-text-6": "c536e3cd7720acbe6122cdab39c52affc53e7f6e000249a0dbba388078aba755",
    "stirling-tnpair-csv-5": "71c3e33a978a92e7f6039242b350c1e994671689b8f0d271599029acc3bb81a1",
    "stirling-tnpair-csv-6": "412ffd22558168f88ee8c0432b55993b3c5a2d08fdc3f698afcf8c3bad5f706f",
    "stirling-tnpair-json-5": "8eb70eac84550b33086714f6a544d6a62baf6e91f4eb5709b0fedb8b7659dc2e",
    "stirling-tnpair-json-6": "3222dc5a46836527841536e12726ea194518938bb91a177da0dec62348f3e70c",
    "stirling-aapair-text-7": "aa99da6d91bb83054218cdfa797f5c3104b9ee9138fc5b00682c11ab0c8beb6d",
    "stirling-aapair-text-8": "bd5bd2478cecabf25fc80977488fbe06a5ff832082f32a7e464dcca501f8d636",
    "stirling-aapair-csv-7": "9fc992746a243f6ad81d722b11b4eb0a85cb936cfa6b86a8d7228e9637a96834",
    "stirling-aapair-csv-8": "aa01372f53916bdc849a11dda0b95536c6890628f592a2f8ac3d72a64cf89b46",
    "stirling-aapair-json-7": "79fd68038dd49d7aef2137223b20dbc4dbe367a7bb5f327188da10d929b273d5",
    "stirling-aapair-json-8": "ba6c595c26a2c60c0d0ae30b6b51ac2b08fc7b87b6bf1fc36156b2b25a3d89c2",
    "stirling-tnpair-text-7": "aa99da6d91bb83054218cdfa797f5c3104b9ee9138fc5b00682c11ab0c8beb6d",
    "stirling-tnpair-text-8": "bd5bd2478cecabf25fc80977488fbe06a5ff832082f32a7e464dcca501f8d636",
    "stirling-tnpair-csv-7": "9fc992746a243f6ad81d722b11b4eb0a85cb936cfa6b86a8d7228e9637a96834",
    "stirling-tnpair-csv-8": "aa01372f53916bdc849a11dda0b95536c6890628f592a2f8ac3d72a64cf89b46",
    "stirling-tnpair-json-7": "4bf80744a393182aed36747e53f52bd1300c93b3a7553da11b7fd43fabe04e2f",
    "stirling-tnpair-json-8": "9b8ef9237481371b997badac7be0b029732fd9077d1152e4675c69bbe8c0e0f9",
}
VERIFY_DIGESTS = {
    "text": "2d6d0b3c9408de02e43c79d19e2d6f2ce71122b9098ca30b70551b3b699501c7",
    "json": "505a98219cd9f8db167fc00ff1232a520a9c95c59c507a315399b1e78d534ac6",
}
# the uncapped run through Stirling order 8 and the trees on [8] and [9], on
# two workers
VERIFY_8_ARGV = ["verify", "--suite", "all", "--n-max", "8", "--threads", "2"]
VERIFY_8_DIGEST = "a994980ae3cb110b2ad28e7fd9586e646bf1d6d7a2c842f35b8f41543b0474af"
CAPPED_DIGESTS = {
    "all-5-text": "a2ace564e587b149095b05fa90870f82f26af44127b7eb5ad81d47c74a1036b4",
    "all-5-json": "73b1fc0df5f3155df54aab5d00beef20c92a266a4d294147e6d56e82789929a2",
    "drake-22-text": "5ae4840f89cd533c99fa303cfb5c355676f08e5d96015ab1538d333bb5556487",
    "drake-22-json": "437e13ba9afdb1e1dd1d98a957c29ab59132afbe2dadf7b1544b4607f8916592",
    "gamma-22-text": "048e2430a1cb4e608a2d8122652fb2e8686f5d182ef6a14650c1ba23ffe69f1f",
    "gamma-22-json": "8ddf7f467e49365accf667157dcfbcfd5ab70f138e97ab0c4e5cad495a046682",
    "combs-22-text": "95c6882725a75a78f7ebf05cde60af8f7f716a9e6b85b01a25ae047265c3543c",
    "combs-22-json": "1b4796228be555b3a3bdfc4f5a133bfe78e96dba2f14f4eb018a0bc5753361e3",
    "lyndon-22-text": "b6cb154f88f7c52108b76aed17d514c781a7e24dd2e8eac42ffd8be0ebf4daad",
    "lyndon-22-json": "c4be4b70250b18d45a50f7e3b8f58da773ad01150949e505b859610d2a4bea18",
    "stirling-22-text": "a3acb65bba7ba765ef1d4752a9369cb8fde7d4c68ca610f37ab8fd2a8dbed1a6",
    "stirling-22-json": "835adb3ded8c20127826fa5841b0e372885c8c362291ad9a28ef5ab859c9547f",
    "eulerian-22-text": "c9e7d65044481695a0ebaa70db0b1d18f42bcd0b2b71a0bfea6d82d3d07ec488",
    "eulerian-22-json": "cf8d37efc8286bd0330883d655a3d03fd13316e2163f642118ba9b8a0832205f",
}

SYMFUNC_DIGESTS = {
    "text-1": "80258d6a2a22aa7ea73673bb2ec992219b9babe45c1e34453a4780b44746ca24",
    "text-2": "050238ad26890eea6b04b6261537fe1aa9d5433b5b2a5db10bc177032774dc82",
    "text-3": "a8f24f30503b1928a87b07cb0081be2157a2d9ab9c5158990f880fa56f84908c",
    "text-4": "15a0c6085303f462f79b6c36c3bd13b5d4c3dad0bc290ac34e4f965105aa3179",
    "text-5": "acbdcfbabea0f1976b3d21f8fe090c9a53351aeae676b71637540bc1e9c6965c",
    "csv-1": "fabde2a31c00284c0795d1a5a3883bba5e23584e44660544f7496fed41062606",
    "csv-2": "8f46186b4d71a4e31fd9006da71b52f57e4b941030fac9cf9336b15b15eaeea6",
    "csv-3": "c122fb464dc08346be4f0af69a9607f5d3117772dad1eca51b480a5572b26791",
    "csv-4": "668c323e5ec7e74f7eda30d2f8a19d4b6bac4fa3cebb7698f00b88f86603563c",
    "csv-5": "9928eaac803be28fda4187f8e0e5b360a52ff05c5520b149659248cf10ebf959",
    "json-1": "f9204807184bd1fd621dda09f674e436c919664574e6fe7d70f2fe1798af87e2",
    "json-2": "526d447347b76bf17b05918dcb90d775627e3071238d51c30f1aa75c9470283d",
    "json-3": "160398154966a65461157c4c6efd154524160ed18afee4114720da9fcba48551",
    "json-4": "ef9e9c626798cf49b2da0ad8150c3443a73acbefe94ec360ccc1f3303f800e77",
    "json-5": "e460d405c8970a453c48acc14ba1ba9f298eaf457f2e4044b22a2e0299dfb69b",
}
REFUSAL_DIGESTS = {
    "rooted": "c3a40f7669c0968644b14e07c0ae8f42f2f35ae043c47eae4bff7112561dbf1b",
    "normalized": "761bf8d1d2704b95a2a598b5951ec8c089e35a4141f09f371037a682beb85e42",
    "combs": "2ef70d534946d8465c180d1b52f438e6b97e040170ffdd6a2f73bb201f504b0e",
    "lyndon": "aa21a9cdc6339c45adb462cfffdf9a14699e725ff09444fe37990f5f5dcdf356",
    "stirling": "55a325ba0b4f8a835f55122383196844d12c48d22583d8e3170b64723acb4950",
    "symfunc": "5ed25d80ba74b8d048c887979edd5bd7c30168320ed518f1ca521b100d9d10e9",
}
AUTO_DIGESTS = {
    "text-7": "5e01d2ec24334e2381d4da26d5f1ac1803885d4ff0615cb20754d170d80836ec",
    "text-8": "aa99da6d91bb83054218cdfa797f5c3104b9ee9138fc5b00682c11ab0c8beb6d",
    "csv-7": "894f4f32d8fa3f6ed981170f3721acdf3f91a509bf490f484391b35ec94b6244",
    "csv-8": "9fc992746a243f6ad81d722b11b4eb0a85cb936cfa6b86a8d7228e9637a96834",
    "json-7": "51c65ec75065785376f42316bb6bf2515940a019307ac391012063cc88b8538a",
    "json-8": "45c52a123e00e38836090216394d0a265044ff537bb4f8f279f6b844fabd3924",
}


@pytest.mark.parametrize("case", ROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_rows_output_unchanged(case):
    family, stat, fmt, n = case
    status, digest = stdout_digest(row_argv(family, stat, fmt, n))
    assert status == 0
    assert digest == ROW_DIGESTS[f"{family}-{stat}-{fmt}-{n}"]


@pytest.mark.parametrize("case", HISTOGRAM_CASES, ids=lambda c: "-".join(map(str, c)))
def test_histogram_output_unchanged(case):
    family, stat, fmt, n = case
    status, digest = stdout_digest(row_argv(family, stat, fmt, n, "histogram"))
    assert status == 0
    assert digest == HISTOGRAM_DIGESTS[f"{family}-{stat}-{fmt}-{n}"]


@pytest.mark.parametrize("fmt", VERIFY_FORMATS)
def test_verify_output_unchanged(fmt):
    status, digest = stdout_digest(verify_argv(fmt))
    assert status == 0
    assert digest == VERIFY_DIGESTS[fmt]


def test_verify_n_max_8_output_unchanged():
    status, digest = stdout_digest(VERIFY_8_ARGV)
    assert status == 0
    assert digest == VERIFY_8_DIGEST


@pytest.mark.parametrize("case", CAPPED_CASES, ids=lambda c: "-".join(map(str, c)))
def test_capped_verify_output_unchanged(case):
    suite, n_max, fmt = case
    status, digest = capped_digest(verify_argv(fmt, suite, n_max))
    assert status == 0
    assert digest == CAPPED_DIGESTS[f"{suite}-{n_max}-{fmt}"]


@pytest.mark.parametrize("case", SYMFUNC_CASES, ids=lambda c: "-".join(map(str, c)))
def test_symfunc_output_unchanged(case):
    fmt, n = case
    status, digest = stdout_digest(symfunc_argv(fmt, n))
    assert status == 0
    assert digest == SYMFUNC_DIGESTS[f"{fmt}-{n}"]


@pytest.mark.parametrize("family", REFUSAL_CASES)
def test_refusal_output_unchanged(family):
    status, digest = capped_digest(refusal_argv(family, REFUSAL_CASES[family]))
    assert status == 0
    assert digest == REFUSAL_DIGESTS[family]


@pytest.mark.parametrize("case", AUTO_CASES, ids=lambda c: "-".join(map(str, c)))
def test_auto_mode_output_unchanged(case):
    fmt, n = case
    status, digest = stdout_digest(auto_argv(fmt, n))
    assert status == 0
    assert digest == AUTO_DIGESTS[f"{fmt}-{n}"]


if __name__ == "__main__":
    for family, stat, fmt, n in ROW_CASES:
        print(f'    "{family}-{stat}-{fmt}-{n}": "{stdout_digest(row_argv(family, stat, fmt, n))[1]}",')
    for family, stat, fmt, n in HISTOGRAM_CASES:
        digest = stdout_digest(row_argv(family, stat, fmt, n, "histogram"))[1]
        print(f'    "{family}-{stat}-{fmt}-{n}": "{digest}",')
    for fmt in VERIFY_FORMATS:
        print(f'    "{fmt}": "{stdout_digest(verify_argv(fmt))[1]}",')
    print(f'VERIFY_8_DIGEST = "{stdout_digest(VERIFY_8_ARGV)[1]}"')
    for suite, n_max, fmt in CAPPED_CASES:
        digest = capped_digest(verify_argv(fmt, suite, n_max))[1]
        print(f'    "{suite}-{n_max}-{fmt}": "{digest}",')
    for fmt, n in SYMFUNC_CASES:
        print(f'    "{fmt}-{n}": "{stdout_digest(symfunc_argv(fmt, n))[1]}",')
    for family, n in REFUSAL_CASES.items():
        print(f'    "{family}": "{capped_digest(refusal_argv(family, n))[1]}",')
    for fmt, n in AUTO_CASES:
        print(f'    "{fmt}-{n}": "{stdout_digest(auto_argv(fmt, n))[1]}",')
