"""Pinned bytes of the request subcommands.

`build`, `analyze` and `stability` run for every catalog method (refusals
included), the first two at one fixed binding of its parameter and
`stability` on the family, which takes no binding; `catalog` runs once.
`build` and `analyze` of each method with a parameter run once more at a
real binding (pin `command:method=value`), where the map is real and its
non-real points come in exact conjugate pairs.
The digest covers the exit code, stdout and stderr, so any change to a
printed form, point, class, region or error message shows up here.
`PYTHONPATH=src python tests/test_cli_bytes.py` prints the current digests
in catalog order; `--dump DIR` writes each request's exit code, stdout and
stderr to DIR/<command>-<method>.txt instead, so that two trees' payloads
can be diffed when a pin moves.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from ndyn import catalog_entry, catalog_names
from ndyn.cli import main
from ndyn.poly import point_key

BINDING = "2-9.3i"
COMMANDS = ("build", "analyze", "stability")
# one real binding per method with a parameter: each but chun's and
# traub-steffensen's (alpha = 0, the one chun member with a normal form,
# and a refusal) gives a non-real critical pair
REAL_BINDINGS = {"traub-steffensen": "0.5", "king": "-0.622", "amat": "1.25",
                 "chun": "0", "chebyshev-halley": "0.3", "c-family": "-0.45",
                 "m4": "-0.622", "os2": "-0.622", "os3": "-1.7",
                 "os4": "-3.1", "os5": "-0.622"}

PINS = {
    "build:newton":
        "1741c9e07f1ff5a64479ce6bec5fe26690374ec58f07e7d7b37216794c544218",
    "analyze:newton":
        "4dc9aa7192865740f809791ceb9c97a56bd37e166d43b283416e464423048f29",
    "stability:newton":
        "5049a2efa3aeef6d336b0b12fed0137966d58b3cc4f830f44e9b713179f10c5f",
    "build:traub":
        "9c47229ff80ad1ac58e6433110b169b31b7881b83175837579b3a118fe715a57",
    "analyze:traub":
        "7a57dfa16a56baf17261c565c00266edcf38299f41d267190588fc049433349d",
    "stability:traub":
        "fe2a5b35a2ff8dbd6e7a7fb3ef033e91f05d73390f7eb259d58eac6f6e11572e",
    "build:steffensen":
        "aa2d71f90fde86eb0c9161fd379d3313c563ad182a7d689a1eb7c79fdb373d6a",
    "analyze:steffensen":
        "aa2d71f90fde86eb0c9161fd379d3313c563ad182a7d689a1eb7c79fdb373d6a",
    "stability:steffensen":
        "fa15c754ec786bdf344e30e89ef51836c3f03b3acebe81bf70a501c1c07c2245",
    "build:traub-steffensen":
        "f259c977efed1ed3db7b749f18ee5b0ccd61ac0e593462139cea1dcd0ae89feb",
    "analyze:traub-steffensen":
        "f259c977efed1ed3db7b749f18ee5b0ccd61ac0e593462139cea1dcd0ae89feb",
    "stability:traub-steffensen":
        "d76d8ae345b16dbdaefa832c9e12849386cfa420004167c947b8421ca96f593a",
    "build:ostrowski":
        "07b6cfb1d90948bc223542b399da4a8f76930dca4a863c96bc208892c3b6b16e",
    "analyze:ostrowski":
        "47106c81aea7dfd54093165ea7d8d02882530960cb8b41480f46717a0e4ff8ec",
    "stability:ostrowski":
        "a45e96b169aed2a02df07c2aa512770627efc049fe52500d7aea9b8866466c41",
    "build:king":
        "e52bf01e1a3aec86128c80d4e2f362dbfc2d236bfd5eca9624de599799d4722f",
    "analyze:king":
        "b4af27bf6547b500c5e0ee5049d167a809dba554707d1feafcea21d1024f25c2",
    "stability:king":
        "b7318b0bc65935186ba8d4e3e36ac6e32a7e296c70a05c22856a60ddcb2313f4",
    "build:jarratt":
        "91a96aeff88c19b6da95e56bc4c209dbdd2a0444d66089d9eae4e6906b2dd524",
    "analyze:jarratt":
        "72699c634bbe3f023516f27ba899b5686ae8c0887435116dc0723ba13383df33",
    "stability:jarratt":
        "97aecf21ebd24918afe43fdc5afae6ea59eaaefa29966c998dc66f5a6292e768",
    "build:wang":
        "bd4c132fa52e5e94753a10adedd08b5bd784c37753bff2e72c24c7c929774d39",
    "analyze:wang":
        "113fef0b8610ce95de04f9d03eaff2ac4f3801225f7d7f189da5b264d184f7c4",
    "stability:wang":
        "a14178cf810cc1afd968346b70953241a42873698940d5d77fdd4f96d7582968",
    "build:amat":
        "7d7e4306f518b35e587b1f6d5e119e599ac7d27a8cc80345963e299574f38991",
    "analyze:amat":
        "83b1d60f28ebb3e237fa0a1f228b72fb8e94df8e519d3774bfe582256d0675bb",
    "stability:amat":
        "4148703c68af769fcac09b1e1b0c0dd67f735bbb5208c6821ec62250fa826d13",
    "build:chun":
        "b61874a29b5470a3338e9de8fe46b74e39c5ba1b0e81747cb167043e83dce2ec",
    "analyze:chun":
        "b61874a29b5470a3338e9de8fe46b74e39c5ba1b0e81747cb167043e83dce2ec",
    "stability:chun":
        "1230549b9b6aa35d821c78e19793c692370589ad10321b0947312a21a530bc4f",
    "build:chebyshev-halley":
        "0f87f5b8573b8a115dbfd43c3532ca9a1e43014bee0b8354cc1cbc89a78bb4d6",
    "analyze:chebyshev-halley":
        "c90c1c9e40d2c6840d41d66ffb8bc42b3970ae34dbb54d72410d4a66c18879cc",
    "stability:chebyshev-halley":
        "776aae00e21ce04b1c1b162fc250ad3691fe3aad9b8593ffa105ac15d3f4dacd",
    "build:c-family":
        "0769ef6456cca7560cc323ca5e3489398aaba11fa4e30788568abd8ba8b982e4",
    "analyze:c-family":
        "45bc03649f8f2275f13a19f982920311ae5cd8320124c924028765e9ff058a17",
    "stability:c-family":
        "44f08fbcaceb0cc4f7ff9ac90b37b165f1ab3cb626ac5a1d59484f49c2bb1a58",
    "build:m4":
        "3b6803fe552e455d19096b5ee7c5f2e6ffb888b971e59d24568b66fc9f880953",
    "analyze:m4":
        "c1716650b73776c0b02d97133f60ec50c9f8876aca644f7afac6423df4feaa22",
    "stability:m4":
        "5890fc764220c580d50ac47cdcac025f34d26cedd3f92ff2074186d208696b58",
    "build:os2":
        "20e7ce5df13c6e2519acb4b9558bd8f1d83dfd418ab1c3ae006a2ef371ebe8f1",
    "analyze:os2":
        "280193ce21b340c8caa74cb7fe39dc0759e880906e59dddd422cf23af3c3c55b",
    "stability:os2":
        "1304d3be2dcb5175a5505bafb3412020018b922888ac502cbb8d94083e1a181f",
    "build:os3":
        "cf569252f157d5178063e52f654435797637dcd38e981c272fb8ff96da30d9b2",
    "analyze:os3":
        "ec1cf3bc21f01ab1a17148557360b03905e9f23c7feaaae0885080a79e76ffa1",
    "stability:os3":
        "bdded1f27b4751aaf01d55513c8f784b78fc1721be2e4ab167d3cd22f4fb11c8",
    "build:os4":
        "f11c3e5aa65b32a245db78f50ba18d4017d1701612dffbc1680a204642490c1b",
    "analyze:os4":
        "30e2e61317d18d43c2a5013dab329ad95b20d6e62965bd64c062272cef5437f1",
    "stability:os4":
        "a90ea7523e90911c5fa2e3f4a6485241d17d062b3bd6fa52074c0a481b586624",
    "build:os5":
        "9a5e274dc9dea1f88cd203d7c431fcd419bfaefeb785785638e684069facd5c1",
    "analyze:os5":
        "ad3f8c8626c57a240c2622ba51b9b9e3b6c476d8e234533a7d831302eee6a822",
    "stability:os5":
        "8847bf769a0fde09656b7e32dc1d226a197f4cbda077608550a69651393fa091",
    "catalog":
        "13694e785d35870c5714009add74deb9b8bfbfca4b2065601c247e24dc425a27",
    "build:traub-steffensen=0.5":
        "943df012bb11908cd4b3cc5491a78b99f7c6c428c3ca77884ab37dd1551703c8",
    "analyze:traub-steffensen=0.5":
        "943df012bb11908cd4b3cc5491a78b99f7c6c428c3ca77884ab37dd1551703c8",
    "build:king=-0.622":
        "1c87ee9be612d18091083becda2d4ad93e0140dc4ff13f07b1e9f72a2b0a7800",
    "analyze:king=-0.622":
        "c94250fb149785bac276142572a4fa3a2d67b6de4f4c6780e135653e912fd9e8",
    "build:amat=1.25":
        "4a419bfd8228b7b2d178bce955cd4bb2b4f8215cc26ba9ab3ce46bc1af54ba69",
    "analyze:amat=1.25":
        "8099b0fee624b1fb609ba3d49a9bdf55cff383e5137b120f22b05d368141027c",
    "build:chun=0":
        "6ac6ad73012867ec2681e309664b3403f531977d7ccc711ff3ede77f591ddd0a",
    "analyze:chun=0":
        "d9948b0c84bd582bc89c50a299f5eab8481b97d9e5f8a469e8341ff53f86da63",
    "build:chebyshev-halley=0.3":
        "180a5a97f19503b93e9239370420c645e9c16de26d7c5dee7463ba4e3b02a255",
    "analyze:chebyshev-halley=0.3":
        "1224ba43a65790b21d1bafcf9e7a1f1bb83342ebdb75cb3913e82e44dc778761",
    "build:c-family=-0.45":
        "f683b7dc9b101ff0d0c64a60030ddc5a86af7423eef4bcb01bd376ac7c6f6ef2",
    "analyze:c-family=-0.45":
        "e69fc2cc2af664c1bf622a875fcbabaaf476c4a93ca9c70c70209264c3e09cae",
    "build:m4=-0.622":
        "68afe2d296793abbe96c97ee8062404373218925bc11f36366dafb73f56509d6",
    "analyze:m4=-0.622":
        "49041d63618400c1baf0de633fbee313a87fcf7aa4d9c9b36f2a465892a09808",
    "build:os2=-0.622":
        "7fc7703a446d475a92f2230e7b8567fd06115040a23bb071127c903c04b9d9c2",
    "analyze:os2=-0.622":
        "f3fb91c237616ee8469cb91d50ab27765e82b6c4ad6783c85d881e47decaa514",
    "build:os3=-1.7":
        "2a9f21897019d2f96abb86add07eaec0277da418b6ed6f5d2d21c1670bd16b94",
    "analyze:os3=-1.7":
        "5e003c5bc32aba1f3f00a7cdd8bbb3e7d85b536f1169c4f8b6d3e310d89aae2e",
    "build:os4=-3.1":
        "ec382355081210ad9de391143f8a63e8d77fbfc160a05627c2efd819af3e071f",
    "analyze:os4=-3.1":
        "33d6275568ef9999533eb26f8f57811f51efdee1c98cdaf41446e10b291b53c3",
    "build:os5=-0.622":
        "b938aeed0ea5c6e55b302c3eabd679697cabdbeaec7b71057fe8a552abd690fb",
    "analyze:os5=-0.622":
        "93a6f526ae49d165eae5efbeff929dfaa6072dd7a7c2908f924da97349fecd6a",
}


def _argv(name):
    """The argument list behind one pin name, `command:method` or `catalog`."""
    if name == "catalog":
        return ["catalog"]
    command, method = name.split(":")
    method, _, value = method.partition("=")
    argv = [command, "--method", method]
    if command != "stability":
        for param in catalog_entry(method).params:
            argv += ["--param", f"{param}={value or BINDING}"]
    return argv


def _request(name):
    """(exit code, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(name))
    return code, out.getvalue(), err.getvalue()


def _digest(name):
    return hashlib.sha256(repr(_request(name)).encode()).hexdigest()


def _names():
    return [f"{cmd}:{m}" for m in catalog_names() for cmd in COMMANDS] \
        + ["catalog"] \
        + [f"{cmd}:{m}={REAL_BINDINGS[m]}" for m in catalog_names()
           if catalog_entry(m).params for cmd in ("build", "analyze")]


def test_every_request_is_pinned():
    assert sorted(PINS) == sorted(_names())


@pytest.mark.parametrize("name", sorted(PINS))
def test_request_bytes_match_pin(name):
    assert _digest(name) == PINS[name]


@pytest.mark.parametrize("name", [n for n in _names() if n != "catalog"])
def test_every_printed_number_is_formatted_text(name):
    # no JSON value is a float: a non-integer number prints as a string
    code, out, _err = _request(name)
    if code == 0:
        json.loads(out, parse_float=lambda text: pytest.fail(
            f"{name} prints the float {text}"))
    else:
        assert (code, out) == (2, "")


@pytest.mark.parametrize("name", [n for n in _names()
                                  if n.startswith("analyze:")])
def test_every_printed_list_of_points_is_in_key_order(name):
    # the roots, the finite fixed points and the finite critical points
    code, out, _err = _request(name)
    if code != 0:
        return
    payload = json.loads(out)
    lists = [payload["roots"]] + [
        [r["point"] for r in payload[key] if r["point"] != "inf"]
        for key in ("fixed_points", "critical_points")]
    for printed in lists:
        points = [complex(p.replace("i", "j")) for p in printed]
        assert points == sorted(points, key=point_key), printed


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"] and len(sys.argv) == 3:
        root = pathlib.Path(sys.argv[2])
        root.mkdir(parents=True, exist_ok=True)
        for name in _names():
            code, out, err = _request(name)
            (root / f"{name.replace(':', '-')}.txt").write_text(
                f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    elif len(sys.argv) == 1:
        # print the current digest of every request, in catalog order
        for name in _names():
            print(f'    "{name}":\n        "{_digest(name)}",')
    else:
        sys.exit("usage: test_cli_bytes.py [--dump DIR]")
