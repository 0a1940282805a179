"""Byte-for-byte snapshot of every scenario's row under every plain controller.

Each registered scenario runs at a shrunk size under ``none``, ``static``,
``ecmp`` and ``crc`` (the last only where the scenario accepts it, i.e. on
a grid), once on the fluid backend and once on the batched packet engine.
The sha256 of each result row (timing stripped) is compared against a
pinned digest, so "no simulated bit changed" is checked on the CRC, ECMP
and static paths too, not only on the control loop (whose rows live in
``tests/test_loop_row_digests.py``).  A change that is meant to alter a
row re-pins the table in the same commit and says why.

CI also runs this file under two fixed ``PYTHONHASHSEED`` values, so the
digests must not depend on dict/set iteration order.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.controllers import controller_names
from repro.experiments.scenarios import (
    ScenarioError,
    get_scenario,
    list_scenarios,
    resolve_params,
    run_scenario,
)
from repro.experiments.sweep import strip_timing

CONTROLLERS = ("none", "static", "ecmp", "crc")

#: Per-backend overrides; packet rows use small flows to stay cheap.
BACKENDS = {
    "fluid": {},
    "packet": {"engine": "batched", "mean_flow_mb": 0.05},
}

#: Fabric sizes every row runs at: 3x3 grids, a 4-pod fat-tree (16 hosts)
#: and a 3x3x2 dragonfly (18 hosts).
SHRUNK = {
    "rows": 3,
    "columns": 3,
    "pods": 4,
    "groups": 3,
    "routers_per_group": 3,
    "hosts_per_router": 2,
}

#: ``num_flows`` wherever the scenario has it.
NUM_FLOWS = 8

#: Scenario parameters that must shrink with the fabric.
SCENARIO_OVERRIDES = {"fattree_incast": {"fan_in": 8}}


def _overrides(name, controller, backend):
    overrides = dict(SHRUNK, controller=controller, backend=backend, **BACKENDS[backend])
    if "num_flows" in get_scenario(name).parameters():
        overrides["num_flows"] = NUM_FLOWS
    overrides.update(SCENARIO_OVERRIDES.get(name, {}))
    return overrides


def cases():
    """Every ``(scenario, controller, backend)`` whose parameters resolve."""
    accepted = []
    for scenario in list_scenarios():
        for controller in CONTROLLERS:
            for backend in BACKENDS:
                try:
                    resolve_params(scenario, _overrides(scenario.name, controller, backend))
                except ScenarioError:
                    continue
                accepted.append((scenario.name, controller, backend))
    return accepted


#: sha256 of ``json.dumps(row, sort_keys=True, separators=(",", ":"))``.
PINNED_DIGESTS = {
    ("dragonfly_hotspot", "ecmp", "fluid"):
        "8c58d9c3b9f975bfa23ca3bd9284c4db465c30e6523f20a5ed811e677b534aad",
    ("dragonfly_hotspot", "ecmp", "packet"):
        "23b715124d0d3e1b413f1c72a01d2d80b48ea4ebb080d8aee732842bb083fd05",
    ("dragonfly_hotspot", "none", "fluid"):
        "7c03240cd407c4aac86ce09ae7c741a1611d546b8eab66726fec192240f35e6b",
    ("dragonfly_hotspot", "none", "packet"):
        "d61a7954524f8646f3fc032bc6f7f1d071cf5fe43b414f4b7a779a0d6ada1698",
    ("dragonfly_hotspot", "static", "fluid"):
        "976833f4a1ea42b5d734d1d2d42b582c6d95a7df3603ef6553ea810e5a181d3f",
    ("dragonfly_hotspot", "static", "packet"):
        "b50a037ee65cb4b53f3514545e0cf8f99817cf71e3b4e32d566ffad32e282039",
    ("dragonfly_permutation", "ecmp", "fluid"):
        "17b13ff5f018b89d56fe10b2e6a58488ccf66768892a9649c84da4a075940a8d",
    ("dragonfly_permutation", "ecmp", "packet"):
        "bbcf60f34886cc03b2155808190e3b62417fd7903e85f18708e440c9540e68ce",
    ("dragonfly_permutation", "none", "fluid"):
        "7a490c5b2daf495c53fa1bba88e91d701097e283c4bc0d936041b03400a585e2",
    ("dragonfly_permutation", "none", "packet"):
        "2adb9223c26eb381636f3c0d5fb2a69ae857bb2715ff15b644d906f83fcd1cee",
    ("dragonfly_permutation", "static", "fluid"):
        "cbd8e4a31b15b635fa64bbca3c2dc587f7c1708e88baf1c7c0397675cc1cc5bd",
    ("dragonfly_permutation", "static", "packet"):
        "b99b9446d3a6a5cfad76b73fa71ee0757918f8359264b9ccc0ef60c73403b502",
    ("failure_recovery", "crc", "fluid"):
        "bd60bc00234e2c6eec21ee7f3f72e1ca909bc8f8ec1c8d8caf6b9f68358e08c2",
    ("failure_recovery", "crc", "packet"):
        "82ca888a68a568902c9f2ef4c54e7d5bc03214070def46ab9e346b795a032125",
    ("failure_recovery", "ecmp", "fluid"):
        "4223e21011f479bdf16511339483467718da02a396c8ba3545da8066ee1e5be7",
    ("failure_recovery", "ecmp", "packet"):
        "8ec68ca42fb752d4c2c3e4ea578c03e4d08a33a31a6c27ae6cd5ea71aee8a8bc",
    ("failure_recovery", "none", "fluid"):
        "e77a8d0a93221ae165dde485ea40088616f3b6adb34b1fc48f0673d36dfe3af9",
    ("failure_recovery", "none", "packet"):
        "bcc8356345c99bdba4441ee2aa3616b966002020011a2517ea8486b1490f20df",
    ("failure_recovery", "static", "fluid"):
        "0edd47955c301a0923536a19e86c7ea5572afc4f112e37bf7e4bb1764489d78e",
    ("failure_recovery", "static", "packet"):
        "ae6a268b83d55f1b0b3f538bcdad02b08716c6cb9f30ec810292531bbf687871",
    ("fattree_incast", "ecmp", "fluid"):
        "82f00d91eef9a30952385cb0b17c948709de04013a6ea7319c6631cc64a40c22",
    ("fattree_incast", "ecmp", "packet"):
        "0f2cf020de49eed9d140c4becab8fa1e1b107a75d4f85ea75536f313b00941a1",
    ("fattree_incast", "none", "fluid"):
        "f5ba9e37dda36e9ef6a7b658bfcccb9c4dcbbd6ec54f8e3e13535db9335c8c2a",
    ("fattree_incast", "none", "packet"):
        "2a2b4372ec6f796736ac9da74cca1b3414a786a755f65d79b0759d0ff50966d5",
    ("fattree_incast", "static", "fluid"):
        "18e72a3342f1a47b49b6ce1e3247c03879ef751553d52fb766985fb36c5e9598",
    ("fattree_incast", "static", "packet"):
        "4068c5833b552284a00ba482485d581ccfc6dbb100170bbbc1cc39e5abcb4e8c",
    ("fattree_uniform", "ecmp", "fluid"):
        "018e14c2268d45cbcbeb09033ca6b2e2d27760f6cf9b5b5855ae6a76fd9ae079",
    ("fattree_uniform", "ecmp", "packet"):
        "4ef8210bdc443111373567b152d9180ffc716539adcf23926fadd8becf29317b",
    ("fattree_uniform", "none", "fluid"):
        "5c4cfa4a6ae0fc99331bae1ee4944654d9f9de19303413ab6df31b010669f775",
    ("fattree_uniform", "none", "packet"):
        "91937e8dd23bb7ff39503782bdeda7c43ca789d31e6743e2c7d1faf22f129476",
    ("fattree_uniform", "static", "fluid"):
        "842c9261baec4fec9d2128afacb924a8a2359373762cbde001edf6668ccf7ba1",
    ("fattree_uniform", "static", "packet"):
        "7c28e1ff216d3186832e650d293d7df533f3a00953f078c511d061761fba2a82",
    ("hotspot-diagonal", "crc", "fluid"):
        "0ed35d7754ab2ad2e6b41dff331ebdf7140bcca2bde7b578e6d01faf53661140",
    ("hotspot-diagonal", "crc", "packet"):
        "ae57cac6e920b7c7e43dd5ef78deec22e182b8d81a7cbd5889add799d78832ac",
    ("hotspot-diagonal", "ecmp", "fluid"):
        "303a63c6a02b519ef128e6b73b373b9826e61131f4a23bd4688b2e3fa91fa8cb",
    ("hotspot-diagonal", "ecmp", "packet"):
        "0cb6c02698e666278fa4a1757b1dd7aba0b5a088b79ffe33383623a02bc35182",
    ("hotspot-diagonal", "none", "fluid"):
        "ffe9ea4bd5de97cd16c96143aee9d73f3d05b6583160ee6e5ae8af05c8e386a9",
    ("hotspot-diagonal", "none", "packet"):
        "ef3e1925d1704febe214056380cce3573ea0c9281a128ab7baf2e8047d8790da",
    ("hotspot-diagonal", "static", "fluid"):
        "4dff54485effa0df5497671c91e46c78a82591818f003418e75134fb7883c7e0",
    ("hotspot-diagonal", "static", "packet"):
        "5c980899058066e683b629b8b9d223857e2ed7a3aaca3f0a39a86ade14fc90ef",
    ("hotspot-random", "crc", "fluid"):
        "b1a09c21e5d2f737026e131ddc74bd0aece38802e89b311fdddca08115135612",
    ("hotspot-random", "crc", "packet"):
        "549e09f0bd96a7a1ea9ea4ed1536ea1bb77f878a8265031fa74ed964cf6002f2",
    ("hotspot-random", "ecmp", "fluid"):
        "5a4a418139e536889a14b748d7421853d7177cc7bfea390e47fbeb27a8b7f427",
    ("hotspot-random", "ecmp", "packet"):
        "2460ab0494432430c42f175153387918e824a9b40cd0b2d59ceccda4414d763c",
    ("hotspot-random", "none", "fluid"):
        "b2c2a6b5bd17b4ebb31c144266249cc48c50e659de95875ba48b67f86ad934fe",
    ("hotspot-random", "none", "packet"):
        "72b17370e1da9cef5159c24355b6f5a12a977d29586f753210f2ac3db9b5458c",
    ("hotspot-random", "static", "fluid"):
        "d7aba19561730fcb37911f4941d7968f1f97b5b03cde4edf49c86a3c74a44cb6",
    ("hotspot-random", "static", "packet"):
        "8a391275585172edbcc23832addebe0d47be452b2c0126034a015447d46bb55d",
    ("hotspot_migration", "crc", "fluid"):
        "825c2144c5c01dc2f6465e3f131fdaaa287d1bb22ad265fba5716c5d595a2a81",
    ("hotspot_migration", "crc", "packet"):
        "eed8d624af7c7d8474f8353ee6aced1a79b361371ad223a4122c878db5901f15",
    ("hotspot_migration", "ecmp", "fluid"):
        "6d84d55999823d2ada2aff8d448ca9a153eef12ad4d8a45fd18d4500f0b0dd38",
    ("hotspot_migration", "ecmp", "packet"):
        "1e33362e9786c8298c098835cbaf63bf1091ee0860a215621fcc8743fb72275b",
    ("hotspot_migration", "none", "fluid"):
        "dddc16b22313768912aa35f5e138bae463d7c470a21de97f0bac3a20e32fda17",
    ("hotspot_migration", "none", "packet"):
        "fae474300b0b7a31f004def54d2c44197c24c558393fd9ae340b349cb1cd038a",
    ("hotspot_migration", "static", "fluid"):
        "3d30c3bc044cd8ec83255002988a33029c51a9b463b0ba458e45cf03018cc030",
    ("hotspot_migration", "static", "packet"):
        "0c8708ee7c9eef228f61b72ddb73ea81c493e9a6f681b90e1a53d6eaea389196",
    ("incast", "crc", "fluid"):
        "afa37fedb99d1ec3904afbf608af4084416b32036ad51d93e996f124e77fd908",
    ("incast", "crc", "packet"):
        "66120268a867315f31458ddb9313733b761fe0ade5e5cc6a59b39eed841e2722",
    ("incast", "ecmp", "fluid"):
        "04aefd744785c53289844e197e286dbb02eece584c4efc600dc142b3488fff62",
    ("incast", "ecmp", "packet"):
        "38e35e290583e75d113301918878e06ce9dff962f76ae7afdba431fe5f0f4338",
    ("incast", "none", "fluid"):
        "15115ff9da763eb16bfebe0e200ab8682dd2f398e6cc65f8006e0d9bcda988db",
    ("incast", "none", "packet"):
        "935656677ee0f9d0f4e3acfb3dcf19347e333a9983e15ce90cd0d243c7d70c52",
    ("incast", "static", "fluid"):
        "915eb660ae37d298bc1918cb803d876e942f90381312867072919004c4e536f7",
    ("incast", "static", "packet"):
        "72831c9b4fd8b43fea8426bb9084d09b88532d4139e1b2d4e75cfd1f39cfc179",
    ("incast-staggered", "crc", "fluid"):
        "764117881d36e8fa6af650ebbdabf1ebed5bd9a4c8e65103cb06cefe3c402395",
    ("incast-staggered", "crc", "packet"):
        "1ac72d4ab1997cc6e985aeb1328ad01a0d1c5f8b8561c8c12180e4b0048d34e3",
    ("incast-staggered", "ecmp", "fluid"):
        "512a3c3fdefe1a40d03af57d7b217f5c7e47a0a42759ba0d360c18bdf586bde0",
    ("incast-staggered", "ecmp", "packet"):
        "da2056bc74767301325db36e023aeb81d486da95660835e0c391f48d7a315b5b",
    ("incast-staggered", "none", "fluid"):
        "70723584a6cc194053f78ae5df3e46868707a0504ff765e878224670530795b5",
    ("incast-staggered", "none", "packet"):
        "8e504c74617bacbac5f068468fc7dc1ae6a2a375875dc9514667cae35c8adcac",
    ("incast-staggered", "static", "fluid"):
        "f07a047eaf1d2df349af7aff23c1d95f50654bdf759ed8bac04b0622db0a5041",
    ("incast-staggered", "static", "packet"):
        "d43f4ca228fae58aadc7bb82def49644ad5185514fbaabe880df5084c735d0e8",
    ("load_shift_uniform_to_permutation", "crc", "fluid"):
        "14274dcb064da2c1e1f5dc197826b3f88a83e486fdb34cf79849ba9536b4b0dc",
    ("load_shift_uniform_to_permutation", "crc", "packet"):
        "d63a0be5c33fdc8010bfb3ebe1a079054cf9d492d0d0ee43ea76adabd7a9bc97",
    ("load_shift_uniform_to_permutation", "ecmp", "fluid"):
        "ebbde37f336c289403139d944e01d10a9a40465e93df3780fad38697b743a925",
    ("load_shift_uniform_to_permutation", "ecmp", "packet"):
        "b86834d421f4a88045f6a482f80d945032b2610667105b7c1fb903aff620de22",
    ("load_shift_uniform_to_permutation", "none", "fluid"):
        "c121ae11a5bf884b9cf30f99fd43936c5a22775ec4cbae73a2ce28ba37197e37",
    ("load_shift_uniform_to_permutation", "none", "packet"):
        "7e887e2f32bd4f57a0e2c1c6b228f9f0275e71db106437ccb14820af4a1da32b",
    ("load_shift_uniform_to_permutation", "static", "fluid"):
        "a160b99f15576a681bcaf2950d24dfa6973ec73b90138f64747c8e505e5130f0",
    ("load_shift_uniform_to_permutation", "static", "packet"):
        "3cf14c9526beb69fac139d267d87465e982d17bcb0fd640c8f994ace92e01d08",
    ("mapreduce-shuffle", "crc", "fluid"):
        "76813fac162d5d637865da53139183f4570423a2115b213c1d75b11bc3dbdedd",
    ("mapreduce-shuffle", "crc", "packet"):
        "6287ca0d3d13f24f4855a64512d2f71d0c079670072dca6e1a14a0e7a031a99e",
    ("mapreduce-shuffle", "ecmp", "fluid"):
        "7b9e56fab5ae64e6ed385e9c073fce9e2dc0404b90c07f9ec36a83540bb1d8ec",
    ("mapreduce-shuffle", "ecmp", "packet"):
        "5f898ccc685ed6d98fa86a900fb9e1331f5c7ec84aeecaab73baa089068bde9c",
    ("mapreduce-shuffle", "none", "fluid"):
        "5f8b18f8ab669b3241911d8273b37df8cdb2bebfaa3071973cde18277af85129",
    ("mapreduce-shuffle", "none", "packet"):
        "f797e3cf9e7d35654bdc48b589843f656c91a64eab1c24f005e485636a5b283a",
    ("mapreduce-shuffle", "static", "fluid"):
        "55c682aebc7e92cc05a6c8ee7d563ff780faa665ee92f435cff70a91ba026a95",
    ("mapreduce-shuffle", "static", "packet"):
        "aff38516f40a716042d3de3e0273ebafbf5a9848f020f54231a64f2bb2fd0662",
    ("mapreduce-skewed", "crc", "fluid"):
        "889f400781a0f55910afdf01c926c62f49bddd10238f92ef458e1181e3ba47e6",
    ("mapreduce-skewed", "crc", "packet"):
        "90419c3fa682284f213502473971c8b20d4c0985a4eb8228fdd9b0d1af789b48",
    ("mapreduce-skewed", "ecmp", "fluid"):
        "6ec04bfac5f4b4d1c9e0165c1371ced15113e9b0b5b792802a2475b8d9365c4f",
    ("mapreduce-skewed", "ecmp", "packet"):
        "1cf43b1e117325fca7e172fdfccf247de923aec757ebd7c3dd78123912a9789d",
    ("mapreduce-skewed", "none", "fluid"):
        "7944ef9970b5107ef6e36bd43b4c6de53c52fa529d4e818ff945cf277f42350a",
    ("mapreduce-skewed", "none", "packet"):
        "f2a32ed11ec023576ce6e013bc10a0270fdd1e19b69285a7deb3e8cdea50abd6",
    ("mapreduce-skewed", "static", "fluid"):
        "08dd51625789d35a3c0b90f4314c0618d74ed7fbaf74f5722ed4f809f6223f1d",
    ("mapreduce-skewed", "static", "packet"):
        "618d943b87013594792823415f590e334546d42d447fa4b40fa4db398a68c94f",
    ("permutation", "crc", "fluid"):
        "9d72f78a2672044f81dc1a0d8fba5ad0f943b579a3dfa072ae079944540e3b1b",
    ("permutation", "crc", "packet"):
        "ece07ecd9ff0b3be5b32a40f906e352db1389d50eff1380f05a5f078bf9ea3cd",
    ("permutation", "ecmp", "fluid"):
        "792f3f6e1e58e0b0fc4f9d8ec83ea27bf2195e5a946200e5f575562cc81ccc80",
    ("permutation", "ecmp", "packet"):
        "87305c275ea42deb7470b36feb6836dccea3e632a0c955d48f4826fabf05ec34",
    ("permutation", "none", "fluid"):
        "188f651f8c00cc92a5d1b631f9e46716804562fd94db83f9ab9df4873d75d400",
    ("permutation", "none", "packet"):
        "3b5c34ad966d4812a1c0401e127e7857d1e0b404bf9ca07a80235f82c7469304",
    ("permutation", "static", "fluid"):
        "461a9f712666daf8f547ad2007838d904809fa785bd6c36beead1395779020fe",
    ("permutation", "static", "packet"):
        "cf5d24d1040d4d2b00892f5613e500ab87e9195c46db9eb4b13fb70fc23efbcc",
    ("permutation-heavy", "crc", "fluid"):
        "a79faa381a107ad5d3ac70042a1c8126d0db466f52b241903cddb76b1a504efb",
    ("permutation-heavy", "crc", "packet"):
        "e137d0e995ba4cb89b76689a000b15bf450a06bbbf3e297c4bf335c96f3e1b14",
    ("permutation-heavy", "ecmp", "fluid"):
        "d2872fd9c6d65c236dadaaee5f65ce429e7bd4144ad7d90c4b64b9243ceaacbd",
    ("permutation-heavy", "ecmp", "packet"):
        "012d04ef417433ffa43a777cac90d4edd865860227c9870796fffc2a53ba5ace",
    ("permutation-heavy", "none", "fluid"):
        "f30a3c55c17825d4bc75975050e104be546f2b7b31d9058e41f880bfe57623e0",
    ("permutation-heavy", "none", "packet"):
        "4a13cafacdabfd40a6e71e226a9fcd6e38d1d77070c39bd42d92224a56c40926",
    ("permutation-heavy", "static", "fluid"):
        "89d0da9934868971e1f3b13c5fcc82d9a83b6afdfee166cf06d5b85d222b93f9",
    ("permutation-heavy", "static", "packet"):
        "a941b4a3b8e7858d425c5cc0e7dad0dc8bbceeb8c703e2f0f75d2d3876a2e58c",
    ("rack_scale_uniform", "crc", "fluid"):
        "ae95d537c3af3827a530c751a5b742d59b497a6db73b15a8e35bcd5745a8060c",
    ("rack_scale_uniform", "crc", "packet"):
        "c3c8a157bd7f804067cea2f73ae1a2bf7a174d54eaae5159fb54efbc11047552",
    ("rack_scale_uniform", "ecmp", "fluid"):
        "f4e0f2462d29e9c782b6e1c9d39c84c54c6af74f8586d540de01ea1ef9ead0f5",
    ("rack_scale_uniform", "ecmp", "packet"):
        "c9e398217acba9dc897e646defca48c3bbd930e8ff9a60090288a35b223a855c",
    ("rack_scale_uniform", "none", "fluid"):
        "0667ee202ee0688587d5c9c5ae4cc6aa790b543e76d422b24fbbdb04c073c2ee",
    ("rack_scale_uniform", "none", "packet"):
        "5f8573ebb1a632a4dca3d3f1414f4253f8aebb2aa0fff0dbd6f7a407f23f6b97",
    ("rack_scale_uniform", "static", "fluid"):
        "8b5d88582ba9982fdfaebd28e19a3e44b3215318a3aa8ebbed929241d4053f56",
    ("rack_scale_uniform", "static", "packet"):
        "c15d59dc0fe01a9231d2e9ad68a3b1f74db02674746f20098bbe438b3c5ba0bc",
    ("storage-read-heavy", "crc", "fluid"):
        "10e91b0b873e24827220cac5aba741c8eb1bb3d31f2fee64a3b4e585e63ecb24",
    ("storage-read-heavy", "crc", "packet"):
        "e6ada997d891f757a36b769f6c5ddf46d0e9a585af33fdeb5ce55ae25dee7d6e",
    ("storage-read-heavy", "ecmp", "fluid"):
        "388a92cabe9870f21a763fc9a9d9d4d5c709e0c6bd011bf13547fa4a87850b60",
    ("storage-read-heavy", "ecmp", "packet"):
        "36a392d4af2bc2e7386e7b04039d298896506a6d069256c6af26f5e0d97f1ea9",
    ("storage-read-heavy", "none", "fluid"):
        "2abb7fca803bb4117f818c9bf5eebcb48696e360b612509e303dbf71f2ba36e8",
    ("storage-read-heavy", "none", "packet"):
        "8e906be77296ab2dd951dd245f4902e8698ccb44df46425c2126ce945c23f736",
    ("storage-read-heavy", "static", "fluid"):
        "d4c50baab87e4c5188e59a01973662aa40ea26c20935fc7c0f99743e51347f28",
    ("storage-read-heavy", "static", "packet"):
        "605860946caac4c9332d1c1d2bef1405eea59360b5cfaaad7119e5b985f6e909",
    ("storage-write-heavy", "crc", "fluid"):
        "24a912ea16928ef2a39c79f8d3e3767bb1cd1c6d7c340c79495ad9bcae80bb73",
    ("storage-write-heavy", "crc", "packet"):
        "759cb6a0eea16f6d672c2f9a7bb473343640a2d05c8ac2e6e950324e38c59da8",
    ("storage-write-heavy", "ecmp", "fluid"):
        "d819e488d1996c26d9fb98179ed7b9df0041a38ab09e3f31e7521ec2683d184a",
    ("storage-write-heavy", "ecmp", "packet"):
        "f9a476255528d07fb25024ecbc5398fcb4304f74b573cba96ae8dc8058149779",
    ("storage-write-heavy", "none", "fluid"):
        "5e9205f62c65148fdc9c77fb46ac72b54c2a9151f71add581f0cd53fffb8f3fe",
    ("storage-write-heavy", "none", "packet"):
        "462fd89f35831fb8bd399c312b95455e7964abd8021080150d1baeb07e8da50c",
    ("storage-write-heavy", "static", "fluid"):
        "e316ce6d41042b1e641d2282ff57734f8e05f297d547c7ae4c6cadf3174492b4",
    ("storage-write-heavy", "static", "packet"):
        "6e6e5372b3db11e64ef91e5b27792318dec8f390b6b8920b5f97e2cefa3ad480",
    ("trace-ring", "crc", "fluid"):
        "c1f7e5ee1d36eb6b1efd3a0e36b6eea9af3b67f684648b749838c34318bdc575",
    ("trace-ring", "crc", "packet"):
        "1ca7196cae38ba81408fc3de32e6c8a8f8faccbad5a07c85f4ae583c8f130bfc",
    ("trace-ring", "ecmp", "fluid"):
        "54524c4574d411f28cd036e70699470ca74f727f42172716dcdd18e6c6605741",
    ("trace-ring", "ecmp", "packet"):
        "90e4f5c567fdd22592c3b7ce7d29b5eace5c5f8a8f0ff18dd656e2394f3f86cb",
    ("trace-ring", "none", "fluid"):
        "b117eaa7070c98923f6a26cf5c8c5b0f78861d3df2510956cc51cf4b55da28dd",
    ("trace-ring", "none", "packet"):
        "4ffb9e32b2f3e3cb6e15d642d643207c1e11bfe0b7516568ff103df0ee7c0231",
    ("trace-ring", "static", "fluid"):
        "7f967bbd3ca19d5b62834f8e26bea20d640001d08250580312cb4fa39024eb35",
    ("trace-ring", "static", "packet"):
        "92c57f1a9bc382edf59801a5cf95268576451281d589eded1ccbbc414059bee7",
    ("trace_replay_dense", "crc", "fluid"):
        "8b13872d8ea13d07b6eb4f6f9df64e0fb74892e17530b3e115ad593027bbf5b1",
    ("trace_replay_dense", "crc", "packet"):
        "776e7703deb4f2ab086bc8ed5b0a3e5abfc4d0e40c3287208dcdad5ce6949bea",
    ("trace_replay_dense", "ecmp", "fluid"):
        "87f04521158123752fa3bf55ddb786c5d41b7f58030e22d92a31b9ec77f3c8d9",
    ("trace_replay_dense", "ecmp", "packet"):
        "435d7e9b56dca7a37af67d4fd75e2ad8afa162a874e2f4ff9dcc115b4ba1e81d",
    ("trace_replay_dense", "none", "fluid"):
        "b2d4dc3b4a1a2705bef77e459e43a941190fc4f3354ce17440fd5f42aab0f39e",
    ("trace_replay_dense", "none", "packet"):
        "4df723c3db3e2c7ae88679054cf2750e9135653b9bdad0b22b3d3e765f943211",
    ("trace_replay_dense", "static", "fluid"):
        "1b58f7838a70e90188000827c1de131336e26b15e325ac24fab73d8644312958",
    ("trace_replay_dense", "static", "packet"):
        "7dbf2abb6971b590c7da4dfe666355ba2e256ba3df1f628b73685e5c2f8a4699",
    ("uniform-burst", "crc", "fluid"):
        "481e8866ea9af553afd860662e2dd493683d35961c0346f496aad684fb31072f",
    ("uniform-burst", "crc", "packet"):
        "d06326f33fc8900d42ebd062b2a1f0c7a840dca97d32519d20ddb91c8db1a956",
    ("uniform-burst", "ecmp", "fluid"):
        "71d21c2406a6d5ff183b3c5157f80ad98fd594476942a220abe0b259a214ceab",
    ("uniform-burst", "ecmp", "packet"):
        "4976b351460485975c1d859227336ffa6ff3df53e888429efad3c478bbe78c4b",
    ("uniform-burst", "none", "fluid"):
        "1b05426635d95142abcbbabac70d24fbd93d3761de230475402905dd1ed3f516",
    ("uniform-burst", "none", "packet"):
        "f2a0ca03bb8770df8a6c3cb6a7627db9b72f49db40010ce23de5398a73c74efd",
    ("uniform-burst", "static", "fluid"):
        "25422c10cb6c7ab1eb3e5d563339cf19da6a78364376580d77eb257fde0f9c35",
    ("uniform-burst", "static", "packet"):
        "777f98160c642552941246da3ec94f753d6b092a07a0480097e6d715a3e1a8bf",
    ("uniform-poisson", "crc", "fluid"):
        "6d4599ff0c589f1b769680146e0ad4da283ddf2971f10fa4061d183071683803",
    ("uniform-poisson", "crc", "packet"):
        "2c7726bd9788f05e16fbf138f26c911e3dd4d6eaeb7ba51d30004eb4ea2806eb",
    ("uniform-poisson", "ecmp", "fluid"):
        "890217043c31c6c8f9235b46537526033978d9dce80e4aa4226e5ff5a945782c",
    ("uniform-poisson", "ecmp", "packet"):
        "20b0c79dbd201ea50421cec8989325b28455384b6d36c5bf088f2bbdeabadb83",
    ("uniform-poisson", "none", "fluid"):
        "faa91f1f302d66781db4bc1e26eb1a51675f8d12939d556e6fb8330d59f58b45",
    ("uniform-poisson", "none", "packet"):
        "f62482e5e128c2dc15d6295c8926d32023d5c998132ff71e166387ad94d361a1",
    ("uniform-poisson", "static", "fluid"):
        "25057b0e6e387c68c95776ac6734781a4059c99efad08dab65ccc70419e2e6c2",
    ("uniform-poisson", "static", "packet"):
        "25192e048870c59b777a2b74d9a633285ef7cb0834f3169da6877b88cee2ae88",
}


def _row_digest(row) -> str:
    text = json.dumps(strip_timing(row), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scenario_and_controller_is_pinned():
    """A new scenario or controller must join the snapshot table."""
    assert set(controller_names()) == set(CONTROLLERS) | {"loop"}
    assert set(cases()) == set(PINNED_DIGESTS)
    # The only combinations left out are the CRC on non-grid fabrics.
    skipped = {
        (scenario.name, controller, backend)
        for scenario in list_scenarios()
        for controller in CONTROLLERS
        for backend in BACKENDS
    } - set(PINNED_DIGESTS)
    assert all(
        controller == "crc" and get_scenario(name).parameters()["topology"] != "grid"
        for name, controller, _ in skipped
    )


@pytest.mark.parametrize(
    "name,controller,backend",
    sorted(PINNED_DIGESTS),
    ids=["-".join(key) for key in sorted(PINNED_DIGESTS)],
)
def test_controller_row_is_byte_identical(name, controller, backend):
    row = run_scenario(name, _overrides(name, controller, backend))
    assert row["params"]["controller"] == controller
    assert _row_digest(row) == PINNED_DIGESTS[(name, controller, backend)]
