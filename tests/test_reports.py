"""Golden report bytes: the sha256 of (exit code, stdout, stderr) of CLI
commands on the shipped inputs.

A refactor that is meant to leave reports alone must leave these digests
alone.  The fans directory in stderr is replaced by ``<fans>`` first, so the
digests do not depend on where the repository lives.  On a mismatch the test
prints the new output; a deliberate report change updates the digest and
names the change in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from torrigid.cli import main

FANS = Path(__file__).resolve().parent.parent / "fans"

DIGESTS = {
    "check-fan a1_cone.json --format json": "a8a69ccf7fdc7de183214aa3d0185783a5ab56baa32c51cc42e41afee80be93b",
    "check-fan a2_cone.json --format json": "1e45851a0dad9d205e8af6f67584b02ce317d244601d17508a1faf3fb038afc0",
    "check-fan a3_cone.json --format json": "b81927908990a2d3df7398182217966f4c9517b71921e645d147b53f828a3d56",
    "check-fan degree4_on_p4.json --format json": "28daf93ca1673d957a075e5179698cd1cbfc067c4aab9b642c3ed2c98aa46672",
    "check-fan f2.json --format json": "22b44592b1bba345a5430c423ec2ae0d2fdba9e9ba48d1de11ccda4f796c594b",
    "check-fan fermat_quartic.json --format json": "8e7e9deb78b4f907e359209b43c950e23b5f0b3062cd25aaa5154ab3b3574f5b",
    "check-fan fermat_quintic.json --format json": "364fceff1838407537315fe1548979232b9f0fa9ec1a14319d4216ac87e2721e",
    "check-fan hexagon_cone.json --format json": "a08ea5a72a7a01cef2739c7eb6392b5e210156025da4cb407e6a0cb7b09d7412",
    "check-fan hexagon_polygon.json --format json": "976b493aaba4d9a318670265bed0d18de045807a23bfd18105bfab0f3a8a43d3",
    "check-fan p1xp3.json --format json": "f996dff938d4c4b9fb8f9b24da52837929f6d596a7cd620bf99b86ccbf0b128f",
    "check-fan p2.json --format json": "b3202629fd7ebd600fc0c8c1848bbf9272af83d15b63daeb71958ca0a7b37530",
    "check-fan p3.json --format json": "f51b29e4d748edd8a319965a484bbe977b3fbc356b577f4b4f9d76c7bf170b87",
    "check-fan p4.json --format json": "48514d05a172eae50481a2ae23856841b6f718c5c2e2cf3472a2ad489c26551f",
    "check-fan square_cone.json --format json": "c8486970bb2e4550736e744b3b2f65aa58aecb8ff7324f0f72a0dba704cf85b0",
    "check-fan square_faces.json --format json": "623e71e7eac66521799d7a8e3f639b29661a1eb5bfbab693d57eb2092c7cd776",
    "check-fan square_polygon.json --format json": "c4ad8fd7f0481b298961772ff3eb7b4f8309c933c16f6ab8d8908ed7bea43419",
    "check-fan third_cone.json --format json": "6828f60d174349ac74569308d6f1fb06125bcf6411ad93caf826e0e86010c083",
    "check-fan weighted_simplex_1113.json --format json": "f214e10eb4b71370c0fe5bf6ce785715daccabff96a113a6a76b64313d78408e",
    "cy p3.json fermat_quartic.json": "86cfe3cb17c1ddfea250084f08910eba89a86d0cd44cfe598b20ff0c6e813b54",
    "cy p4.json degree4_on_p4.json": "012ba63e423190b107424d35a8aa225c527c866b0125bea4a11a8ecb419d4a0d",
    "cy p4.json fermat_quintic.json": "695ac87d54c6f1cc396de8a803c6611020d9e54cf40c7da5c56fc94dffd03b64",
    "localcoh square_faces.json --i 3 --p=-1,-1,-1,-1 --oracle": "5f355c7e2a662175afa2e10c6411486937c32102c8129278030d964150e5c7e9",
    "rigidity --wps 1,1,2,3": "750b89a368fe48fdd54df61c7aee4965dbed9f466aa0c63a4c9f9b6f5e68e6dd",
    "rigidity --wps 1,2,2,3": "34975da9bfade4a324a65f2f640d3df88e8fde3b36afdd1ebcf116abce4f5449",
    "rigidity --wps 2,3,5": "d71d318e523812bb58a0708807b656975b5315a657bb0b25ffd1275976d8a13a",
    "rigidity --wps 2,6,6,9": "7e5b92477ada3014131fcb68139f58992b86ba15b103061f416ba2c75090f86e",
    "rigidity a1_cone.json --format json": "7cd5ef3a4cc7a3084dbdeee25df96c660fff1f472cde18c7c83e43f306033d5a",
    "rigidity a2_cone.json --format json": "d7f65d924ea372daf137ea0f2d0d7af29f20323126e593dbd2d29cde2afa8394",
    "rigidity a3_cone.json --format json": "91022703d9fa867d3300d6eb0b5561c011cceca93ec3f20bf05e198f570c1c44",
    "rigidity degree4_on_p4.json --format json": "28daf93ca1673d957a075e5179698cd1cbfc067c4aab9b642c3ed2c98aa46672",
    "rigidity f2.json --format json": "ab22b28fbdb551120c7b296be8d60c468b25749f65879617e7a0ad20d0aca8eb",
    "rigidity fermat_quartic.json --format json": "8e7e9deb78b4f907e359209b43c950e23b5f0b3062cd25aaa5154ab3b3574f5b",
    "rigidity fermat_quintic.json --format json": "364fceff1838407537315fe1548979232b9f0fa9ec1a14319d4216ac87e2721e",
    "rigidity hexagon_cone.json --format json": "db695eb0922db55ee1c3ec6101eeeb47d38ea618f17dc3a9405078639d744687",
    "rigidity hexagon_polygon.json --format json": "976b493aaba4d9a318670265bed0d18de045807a23bfd18105bfab0f3a8a43d3",
    "rigidity p1xp3.json --format json": "6a81a61350c9a5fbc461c258d2bcd4e413a5a4f0b6a645b64aea83ac152769e3",
    "rigidity p2.json --format json": "c9f14af05bafa9e28882e86c0b9cadff12d29750f369b42ac8191d76bb55f9e7",
    "rigidity p3.json --format json": "c6c422f0096c840f622f602320b9ff1e6cf19f62329509b20588d0033b35c578",
    "rigidity p4.json --format json": "25e4a8a82ab5d3784c72c50bbbc208a46ff84ddd49ae37833e093491b1bf4763",
    "rigidity square_cone.json --format json": "9262099c6d6ec629935fdb884a7f37bb6a25df7b83ba6240b264d5ea68a95cea",
    "rigidity square_faces.json --format json": "659c53b6f926c311c3e3e94175da4f951d71c5007069fd209db1f118de6384c3",
    "rigidity square_polygon.json --format json": "c4ad8fd7f0481b298961772ff3eb7b4f8309c933c16f6ab8d8908ed7bea43419",
    "rigidity third_cone.json --format json": "2402bcf164b7c9b2def39a19abed2a564906f4147dddaad8c7f7dba2a62ffdce",
    "rigidity weighted_simplex_1113.json --format json": "ab5a226c62d8606998d1366e8ccefc90b30ffe969b67ba83d4c1dc2d74f749d0",
    "t1 a1_cone.json --format json": "60d1e4a5fca1444aba576c5ea85ed677496044040bd0a366b752f584c4169991",
    "t1 a2_cone.json --format json": "99c79875c303e1feba696bc0ca5022b717a25ef11413180057ff644608682269",
    "t1 a3_cone.json --format json": "c4b4d5ab1c6cfef8c806d6f2aa89c1e06c9effc6e3965ecf55baf2b916f8cbd4",
    "t1 degree4_on_p4.json --format json": "28daf93ca1673d957a075e5179698cd1cbfc067c4aab9b642c3ed2c98aa46672",
    "t1 f2.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 fermat_quartic.json --format json": "8e7e9deb78b4f907e359209b43c950e23b5f0b3062cd25aaa5154ab3b3574f5b",
    "t1 fermat_quintic.json --format json": "364fceff1838407537315fe1548979232b9f0fa9ec1a14319d4216ac87e2721e",
    "t1 hexagon_cone.json --format json": "c0bbe91cb0ab981376e7b3359d9a1a25f124bd9bdd9f4d412819be6606930b38",
    "t1 hexagon_polygon.json --format json": "976b493aaba4d9a318670265bed0d18de045807a23bfd18105bfab0f3a8a43d3",
    "t1 hexagon_polygon.json --polygon": "ebed0dfc5034adf540dcfbe5dc208ff42024cc4229017d1641923190444e7b9d",
    "t1 infinite_der_cone.json --format json": "cdf6e6baf0ea20d9e578e97bf276497282a5db9f70e4190d4886af83397e24ff",
    "t1 p1xp3.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 p2.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 p3.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 p4.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 square_cone.json --format json": "8161f006350ac391a8513e84d94756a7ee086e1f4202c22ec0ee260205db1037",
    "t1 square_faces.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
    "t1 square_polygon.json --format json": "c4ad8fd7f0481b298961772ff3eb7b4f8309c933c16f6ab8d8908ed7bea43419",
    "t1 square_polygon.json --polygon": "145785ad40fdc631c7bcb7a516bf6d1dde3264a8ef8a79809c4550fb52d0e589",
    "t1 third_cone.json --format json": "81d7aff8ba6a7cb90d602e06ac8af3e93f9d09ca1102816a3eea1a765e161ba4",
    "t1 weighted_simplex_1113.json --format json": "403f83f5305eb6cdb336e20a8eac69360e3dcd85374d105d1ee15b1fc97bb3aa",
}


def _report(capsys, monkeypatch, argv):
    monkeypatch.delenv("TORRIGID_BOUND", raising=False)
    code = main([str(FANS / a) if a.endswith(".json") else a for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err.replace(str(FANS), "<fans>")


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report).encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_report_bytes(capsys, monkeypatch, command):
    report = _report(capsys, monkeypatch, command.split())
    code, out, err = report
    assert _digest(report) == DIGESTS[command], (
        f"report changed for `torrigid {command}`\n"
        f"exit code: {code}\n--- stdout ---\n{out}--- stderr ---\n{err}"
    )
