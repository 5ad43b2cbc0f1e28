"""The canonical semigroup, body and normal-fan text of six workloads,
pinned by sha256.  `perfbench/run.py` checks every benchmark job against
the digests of the first three, so a change that alters an artifact fails
here first."""

import hashlib
import json

import pytest

from okbody import make_case
from okbody.convex import normal_fan_rays, polytope_to_json
from okbody.okounkov import body_estimate, semigroup, semigroup_to_json

PINNED = {
    ("quadric_surface", "complete", 7): {
        "semigroup":
            "7e27e8a0c820cf9dbcbc44071d5ea1fe83c5cea60f370706a4615cfdc6823d3d",
        "body":
            "3f2c988c911a7dc61188700c97e5e9afc5fa24099bd64740a54124ad438a9089",
        "fan":
            "6edf80e633fa8014dfa73224a4cb74892725a108f7018a73699fd6fd091749f5",
    },
    ("fermat_cubic", "powers", 6): {
        "semigroup":
            "6b96a6575a9eb5bca5434826e16d5dd8e5e9d69625b4ef848d715f6b17b97287",
        "body":
            "0ccb714e0f0d07bbb2fbdd110fda5e2f2c12a621da201e40b479d13ac91d0083",
        "fan":
            "8b9c29a5b130f7b5946221a13fd42154393b746a30361b38519ba672653a82bc",
    },
    ("p3", "complete", 7): {
        "semigroup":
            "ff97238e0075f5cd69f3d9eb822a5da32029a1a1f1b2dc2086d564d7e19777fd",
        "body":
            "562497fa1cc4c390d418e5b8c7837f05c33518dcb08c4a60433e17f13107e5d7",
        "fan":
            "4cb3bc3129d86fe802a4ff96527741bc77a380ccfe3e133d09aa7b7f41c2a6b9",
    },
    # three workloads that read the final curve's value sets at many degrees
    ("quadric_threefold", "complete", 6): {
        "semigroup":
            "a8ff3de552209d36e01202684f83dca3bd059dc99844944527525fcbdb994b6c",
        "body":
            "1403586cf9b173d3dfbd30969ba52c06b606874bbe6802b7a5ba09a1e352e96f",
        "fan":
            "0298329c43813100013a54c94aa4aadc9527fd45e4ec0dc0760cf713e4ccba0d",
    },
    ("fermat_cubic", "complete", 16): {
        "semigroup":
            "0fc5d97a4fc8bb47a504b18970db2ddc5d3ce4ba507c043ddcaedca94289d51c",
        "body":
            "0ccb714e0f0d07bbb2fbdd110fda5e2f2c12a621da201e40b479d13ac91d0083",
        "fan":
            "8b9c29a5b130f7b5946221a13fd42154393b746a30361b38519ba672653a82bc",
    },
    ("quadric_surface", "powers", 12): {
        "semigroup":
            "3593a9ba05c5ee900babc871c93a3a36a06153011f0d5cff87bca81b7ccbacb0",
        "body":
            "3f2c988c911a7dc61188700c97e5e9afc5fa24099bd64740a54124ad438a9089",
        "fan":
            "6edf80e633fa8014dfa73224a4cb74892725a108f7018a73699fd6fd091749f5",
    },
}


@pytest.mark.parametrize("name, kind, max_level", sorted(PINNED))
def test_artifacts_match_pinned_digests(name, kind, max_level):
    sg = semigroup(make_case(name), kind, max_level)
    body = body_estimate(sg)
    rays = normal_fan_rays(body)
    texts = {
        "semigroup": semigroup_to_json(sg),
        "body": polytope_to_json(body),
        "fan": json.dumps({"dim": body.dim, "rays": [list(r) for r in rays]},
                          indent=2) + "\n",
    }
    digests = {key: hashlib.sha256(text.encode()).hexdigest()
               for key, text in texts.items()}
    assert digests == PINNED[name, kind, max_level]
