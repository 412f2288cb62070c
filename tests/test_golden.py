"""Golden output: the exact bytes of report commands, pinned by digest.

Each entry records the exit code and the SHA-256 of stdout, once with
--format json and once with the default text rendering.  The digests
were taken from the code before the checking logic was folded into one
primitive, so a refactor that changes any verdict, witness, meta entry
or rendered byte fails here, not only one that is nondeterministic.
The later entries were recorded afterwards, as their comments say.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NILSQUARE = str(FIXTURES / "nilsquare.json")
NILCUBE = str(FIXTURES / "nilcube.json")
BROKEN = str(FIXTURES / "broken_action.json")
BROKEN_Z4 = str(FIXTURES / "broken_z4.json")

# (arguments, exit code, json digest, text digest)
GOLDEN = [
    (("-w", NILSQUARE, "--seed", "11", "bar-verify", "main", "--depth", "3"),
     0, "1dddde180093f4b14fa0115ed057f908e7b73914274e79fcd08684f0ba69dbcc",
     "af84239dad3dfec0e3e254739474f412d22c13bb0722181a061049aace14787c"),
    (("-w", NILSQUARE, "--seed", "11", "--policy", "sample", "--samples",
      "128", "check-xmod", "main", "--consequences"),
     0, "a6322fc22b138ff4de668bbc1ecfbd1d311f795b72544091a876546504dac3d5",
     "c7014bb70373cc92520270885fffb151f013fe46939bb280bc2a072363949aac"),
    (("-w", NILCUBE, "--seed", "11", "cim-check", "incl_cim"),
     0, "47a3786f65a955ca8c9007ad0a0223de198a4bd575b4f9daff64e88d77d20c79",
     "427de27d860661e787f7001aa007f3df64daf760c15f38401104de4e6f0b9528"),
    (("-w", NILCUBE, "--seed", "11", "bibar-verify", "incl"),
     0, "9d6ebd695d3541d677c025c763471b6400c39450cfc6fefda60216a97214cfee",
     "e9e60241e8dbbddff2754660a2c2f9979f0386b2d81669cec64feabb6d0451f0"),
    (("--seed", "11", "fuzz", "--count", "25"),
     0, "4efb8b5aa9da54d871f32b4d27defffabf83a4ec2fefb0845f83dc0fa9df1703",
     "539597bb0a3f9d5b4266826f67b0189de650c173ac5302aa2e796958fcaf1f99"),
    (("-w", NILSQUARE, "--seed", "11", "roundtrip", "main", "--depth", "2",
      "--perturb", "--budget", "80"),
     0, "9a075cfbb4aea0048e8aa59c152d457c45ced2eca86861732011fb773e7b7318",
     "c621d5b75deac3e9703038f9d1fba0cf978a2331a51c2182e0ed01c5f0419d93"),
    # re-pinned when the consequence checks of a crossed module that
    # fails validation became one SKIP leaf
    (("-w", BROKEN, "check-xmod", "main", "--consequences"),
     1, "aec11b7b2859a50740f86b28bcaf6fe3af025437e16073ac8787d3302d2aa9af",
     "53db88fccf7f74871989f4586086a1b915c54eaeaf5b8167f7210bd8bd551fda"),
    (("-w", NILCUBE, "ideal-check", "good"),
     0, "7049e38dfe44a9d8bcfff286800e1508591916e3c548f8d86f2af829c3444f63",
     "7f34e261d8ba423380330ec1d6d191b9357befd1d2f11cd0a02964a9118e03b5"),
    (("-w", NILCUBE, "bibar-verify", "incl", "--corrupt-phi", "1:0"),
     1, "9e25e932d91cca9e857a669bd80cbba81bb232bf57ab3b9fde728b132af27394",
     "5876888f464dc76ed96e605453b9792e7322be810d2c86f2c5e6fdf102f06444"),
    # mixed orders (2, 4) over Z/4: witnesses in modules whose summands
    # differ, recorded before failing checks were witnessed on generators;
    # re-pinned, with exit 1 in place of 2, when its consequence checks
    # became one SKIP leaf
    (("-w", BROKEN_Z4, "check-xmod", "main", "--consequences"),
     1, "4d52df6f6d8184d4b5191876ea2fade514bc41194dea694ece11c6b7d6bf6108",
     "b1c286a6e8fd2debb653452e521fcb676165677f505a7372e4c5730ee0a63f62"),
    (("-w", BROKEN_Z4, "bar-verify", "main", "--depth", "2"),
     1, "357172e6ca6f3437791dbd7ebbde92c0d7933f66775b81ada75595cf541ddea9",
     "14734149d3ca1cb8075f10e0a35938396cc724965f9683ebe3c6cd5e5d13ab38"),
    # recorded once generator tuples decided clauses at every size: the
    # level-5 absorption and tail-tail-product leaves are above the
    # exhaustive bound, and the problem leaf of a sub crossed module
    # that does not assemble carries check's coverage meta
    (("-w", NILCUBE, "bar-verify", "main", "--depth", "5"),
     0, "adcf0e0df70096492a0334c607d44a115fc3b8d0c0b828fd3ea4671f45cce6f5",
     "4d941b655f9247b3eee29db8d37e6c86d692dc2857e02a4f72c361a85a18a7eb"),
    (("-w", NILCUBE, "ideal-check", "bad"),
     1, "908fb5aff7ee9174352983e3dc14a98bad888ff4acdc66d82840c76731adfcba",
     "d3223996739b2dc19d70d38f9bce6386aa40d8d02d5b4645d24cf6b5b846e11c"),
    # recorded before multiplicativity was read off the image matrix:
    # levels of orders (2, 4, 4, 4), mutants that violate torsion, and a
    # d0-multiplicative FAIL whose witness the generator scan decides;
    # re-pinned when a perturbation run in which no candidate survives
    # the definition filter reported its round-trip leaf as a SKIP in
    # place of a PASS over no survivor, the only bytes that changed
    (("-w", BROKEN_Z4, "--seed", "11", "roundtrip", "main", "--depth", "2",
      "--perturb", "--budget", "200"),
     1, "8cb038078f167dfa19c16a9a790b2cbfa43a53dd4413b705613df7812fd4a895",
     "99302f0c22a1bfabb58456b563e05f6089e07afc243aa3f3519041e011016b74"),
    # recorded before the fuzzer built one ambient crossed module per
    # (algebra, ideal) pair: draws over Z/4 with summands of orders 2 and 4
    (("--seed", "7", "fuzz", "--modulus", "4", "--max-rank", "2",
      "--count", "25"),
     0, "5daa9177159d55ef6d3ac35f8640eb3cc1d06ec1ea9d75b6852965e68d763126",
     "b69add5813bc34120307d37aa414001a6424799e6bcc9f5a429dc5dc5801982f"),
    # recorded before the coordinates of a span element were solved off
    # the Howell form of the embedding's graph in place of a table: draws
    # over two primes and over prime powers, and a crossed ideal declared
    # by its inclusions
    (("fuzz", "--modulus", "6", "--max-rank", "2", "--count", "50",
      "--seed", "3"),
     0, "93bc868290ed790b2bb57f2af7f16dce9471572ff13ab2c6a087f50ba09d6fa3",
     "c2ccdb439ec6832e4ff0e93066dd724c246bbe960e0ddd141c531f189b0231a7"),
    (("fuzz", "--modulus", "9", "--max-rank", "1", "--count", "50",
      "--seed", "5"),
     0, "98d50f8504af40ac328f619175e5470353095de1d4c6761b0e0a5c806c4f5454",
     "26768380ead4fefd1f0d529bb27cad843e94077c93b93ff4a982f0fcb282fb0c"),
    (("fuzz", "--modulus", "12", "--max-rank", "1", "--count", "50",
      "--seed", "4"),
     0, "a20b62f4a79b8f6788875f24998fa27188c4a2d0055d55029f9cee165a65c3ff",
     "fea7cc62a3859e0cfe4f46496c2371d13df6a8a5067a9bc3fec48ec15d1c717c"),
    (("-w", NILCUBE, "ideal-check", "good_decl"),
     0, "ddc41132faa03e57dd22d13ad5c16365d525ee679dc9b0ecd6e520d5e2ab7312",
     "2b1b5987d63e8321e4ba5192e8e5cd9d2313ca63fe6443cd6aff4a0e1cf30b83"),
    # recorded before each bibar column was checked by the bar's own
    # verifiers: more columns than rows
    (("-w", NILCUBE, "bibar-verify", "incl", "--rows", "2", "--cols", "3"),
     0, "e1272f1622035b26168c00eccdd480ff0128d47868f87dd10dad6ff774cdfc18",
     "8952f1c9fc6f6c03a5617fd755b1de2b4434b6d955dc096d58059aa03212471f"),
]

# nilcube with x acting as the identity, so that the target fails
# validation and vertical multiplicativity is AXIOM class, the one such
# bibar path; recorded at the same time: (columns, json, text)
TWISTED = [
    (2, "9a5cec8182e70b5b03835a9bdec72f5b59029d3df8e1355ef5312f8cc6c1853a",
     "1ce014f2707eeb2e98ee560101eccb5c332cdfa3e97a8048e41b31cd128b1add"),
    (3, "bd0f19d1a462fcd63f08c53b24c3d9917398b696e0250ba4150bc63b98474554",
     "f0e962c3536340e14aa9bfa38cc9c56bdbbbce65fe405f1449f621b2ea7f8c3b"),
]


def _ident(entry):
    args = [a if not a.startswith("/") else Path(a).name for a in entry[0]]
    return " ".join(args)


def assert_digests(args, code, json_digest, text_digest):
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        res = subprocess.run(
            [sys.executable, "-m", "idealbar", "--format", fmt, *args],
            capture_output=True)
        assert res.returncode == code, (fmt, res.stderr.decode())
        assert hashlib.sha256(res.stdout).hexdigest() == digest, fmt


@pytest.mark.parametrize("args,code,json_digest,text_digest", GOLDEN,
                         ids=[_ident(e) for e in GOLDEN])
def test_output_matches_golden_digest(args, code, json_digest, text_digest):
    assert_digests(args, code, json_digest, text_digest)


@pytest.mark.parametrize("cols,json_digest,text_digest", TWISTED,
                         ids=[f"cols-{e[0]}" for e in TWISTED])
def test_twisted_bibar_matches_golden_digest(tmp_path, cols, json_digest,
                                             text_digest):
    ws = json.loads(Path(NILCUBE).read_text())
    ws["actions"]["act"]["tensor"][1] = [[1, 0], [0, 1]]
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(ws))
    assert_digests(("-w", str(path), "bibar-verify", "incl", "--rows", "2",
                    "--cols", str(cols)), 1, json_digest, text_digest)
