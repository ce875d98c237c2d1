"""Outputs pinned at ``workloads.DEFAULT_SEED``.

Scenario entries hold the events digest, the metrics digest and the summary
verdicts; Monte Carlo entries hold each estimate exactly as returned and the
grind comparison's per-label counts (grinding arm, then passive arm).  A
change that alters any of them changes what a config and seed produce.
"""


def _scenario(events, metrics, blocks):
    return {
        "events": events,
        "metrics": metrics,
        "summary": {
            "safety_ok": True,
            "liveness_ok": True,
            "efficiency_ok": True,
            "view_violations": 0,
            "blocks": blocks,
        },
    }


PINNED = {
    "corpus": {
        "suite-000-passive-n256-t3": _scenario(
            "0a0140843cb40d8b1434bf5037f6ae1f4a85851a2bd10ac8cf8dcb0bdddc0746",
            "6affcd09fbf5b2639b24e8e1c68be517644089d4a2824b9598caddc3a3338469",
            30,
        ),
        "suite-007-equivocate-n256-t5": _scenario(
            "3d2a678a67f87cb77aeef18df4f3fae6052be0aeee4d2329496d8a0130c16ffd",
            "b09e8d7e9bbfc1be716bcdcd64e06749c5f9d7dc44382c56bf5669be59361e60",
            30,
        ),
        "suite-014-worst-case-seed-n256-t10": _scenario(
            "b4d2c7543aaf1a33b6ccaf2d85b5e1b43ae8b1f4046ca10c690ec23db95b2b7f",
            "8b2dfdd3452e5d9a4c75b000a64a9d00420cff726844633e956f5e8c24bac0db",
            30,
        ),
        "suite-021-silent-n512-t5": _scenario(
            "d9c0c64fe7dafc199300af774ac435937534890f2d73bf0641840fc4f25fa605",
            "e91cb894c8da2891bd741b992d31b9f44ba353954714db8e158b27086c964b52",
            30,
        ),
        "suite-028-grind-n512-t10": _scenario(
            "9505d2bc77df9b1758cc2158bcc1d38c09e037e167cd7b465cef3a5146f33f8b",
            "8107df4ae8774a5cec5ced7ca5d1d6893a22a8146f136330e11bde0fdef8fb1e",
            30,
        ),
        "suite-035-passive-n1024-t5": _scenario(
            "48b11d99428e837ebaf548613564bdb6b4e0511508be6001a00f559cb1e3128c",
            "9426881d33ad75846625853088bb0a012f2f429b4ea7b5b51fc2e2e383243627",
            30,
        ),
        "suite-042-equivocate-n1024-t10": _scenario(
            "d74a1ce186dab340cbd629743b2838907fd26069b29383c78b58aee1094bd088",
            "12ab5abba5a51472511e854be43cf832de3df4806bfaef4ac67b5aa59082eb02",
            30,
        ),
        "suite-049-worst-case-seed-n2048-t3": _scenario(
            "2dd93f365ae1bfedf5a8b9c2d59982a1425589ad1644b6e31d9c51c0795b364f",
            "36884c68315262040f9bad6b429f3379cc4702ffb6dddade573dfb30a87cfa5c",
            30,
        ),
        "suite-056-silent-n2048-t10": _scenario(
            "c10cfe1f9eb7ebb49095228829ccad8e22afc8d824cb148b5eff036e7da85c0e",
            "c8ecb5d76072b7f92baf1f56279da9677bb2f201a63f356006e957f359623835",
            30,
        ),
        "suite-063-grind-n256-t3": _scenario(
            "db529e7f0b865936f457bd9a19d5f0f0efb8674788044af3269b953cc447447e",
            "829e62aa9c7566cc6a41f45c68849315fe1e59d830e9547d61031b4e8052df5d",
            30,
        ),
        "suite-070-passive-n256-t10": _scenario(
            "c5adc5ab79fc82bc7823da65b3f0701f9a1bc0c0013c01ce8d1412aa0b52f171",
            "6e154f21adc4ac2a80119135d5a73d8cd81327aaa4b5ba878c34c52bee57e081",
            30,
        ),
        "suite-077-equivocate-n512-t3": _scenario(
            "c1a91bfd337959837b35812cfb0a3adf6bc0caef2e4cc9e29be96a59826d18a1",
            "bacae96b5af4af8d6bd18df89be09e22c3ac6f8b870bdbbc047976718c3d5fa9",
            30,
        ),
        "suite-084-worst-case-seed-n512-t5": _scenario(
            "0817f771726a7c5420912ca34ade3c9efe06a81cb549d3f8c82eaa215f6b333b",
            "7e4837adeb8a5477162fbd3d164aa0c53cd3315a071faacddec1be4a99c99e1e",
            30,
        ),
        "suite-091-silent-n1024-t3": _scenario(
            "66e6939fb073a315506e545a45cf0bfb888e447c25700dab6a7200e06381c116",
            "b1b206347f049cb633732796a4e7e3dc997d63e129f9901250fc2c808da43672",
            30,
        ),
        "suite-098-grind-n1024-t5": _scenario(
            "b896b6018372e3344db8212c0550add6f46973cdbc3b8dcb932049282911366b",
            "be5bc2fe03a4fa31ea15acad6842f61a9c9b212b9ebc37496c0171ad336d61cf",
            30,
        ),
        "suite-105-passive-n2048-t3": _scenario(
            "b29ad7f7297a3b5d96e6c800bf891e3899af8a5e4c3cc11283c1fc660177a824",
            "bd05dfd230853725d599a85d4133d713199506a41dfd660f15ebe633e79e96ff",
            30,
        ),
        "suite-112-equivocate-n2048-t5": _scenario(
            "ce867f1ab0cfe049a0ac81f9a647cecc288fca633a1ee02dcabd49ed36d36a0f",
            "b64714de7355efbcde79b7000ab2f9e28a262e735ba4773fd8cb4382cb371c73",
            30,
        ),
        "suite-119-worst-case-seed-n2048-t10": _scenario(
            "0c786439782ff1248e6d39cad430e3597de490d1b628c3310d9f9a779cff5e6b",
            "559e4f7ab26e9942a80cf9e751c34761bf99c4ebf41a45250e766e28e47dbccd",
            30,
        ),
    },
    "wide": {
        "bench-wide-n16384": _scenario(
            "d4ccb9f9d8859672d11d897ddbd9248b36e9cf37c6f15bc7410301b62947d526",
            "a7126e3d52333abc8ec6b4d918f92e6e7d21fab93b70a737884d2794f31a466e",
            10,
        ),
    },
    "txheavy": {
        "bench-txheavy-n8192": _scenario(
            "a5f5bab10107cdee7c9426630d85807d24c76841121b5203aa9e7634f4e3a342",
            "8c460caf858c4cd620641d196f71c726f6c7fc11645b7db8ebda634eced1d55e",
            20,
        ),
    },
    "montecarlo": {
        "assign-1_10-1_2": 0.0,
        "assign-1_10-2_5": 0.0,
        "assign-1_4-1_2": 0.00016,
        "assign-1_4-2_5": 0.05224,
        "core-100-25-60": 0.0175,
        "core-100-30-90": 0.02125,
        "core-120-24-60": 0.0005,
        "core-200-50-120": 0.0005,
        "core-60-18-30": 0.38625,
        "grind": [[1949, 2039, 2022, 2123, 1924, 2019, 1979, 1945], [2003, 1969, 2053, 2008, 1921, 1983, 2077, 1986]],
    },
}
