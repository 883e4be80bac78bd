"""Every file and every stdout line of the five commands, compared byte for byte with
digests recorded before a refactor.

Three short drives are shaped like the benchmark workloads: the nominal
cyclist scene, a pedestrian scene in dense clutter, and a sparse perturbed
cyclist scene annotated in both modes, compared, and signed and tracked
against the truth trajectory.  Float formatting and the random streams
depend on the Python and numpy versions, so the digests hold only for the
versions in GOLDEN_VERSIONS and the test skips elsewhere.

To record new digests after an intended output change, run the drives and
print `_digests(...)` for each.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from vruradar import cli

GOLDEN_VERSIONS = {"python": "3.11", "numpy": "2.4.6"}

DRIVES = {
    "nominal": ({"preset": "cyclist-nominal", "duration": 4.0, "seed": 202},
                ("gnss-imu",), False, True),
    "clutter": ({"preset": "pedestrian-nominal", "duration": 4.0, "clutter_rate": 40.0,
                 "seed": 101}, ("gnss-imu",), False, True),
    "sparse": ({"preset": "cyclist-perturbed", "duration": 8.0, "clutter_rate": 0.0,
                "lambda0": 2.0, "seed": 0,
                "perturbation": {"start": 3.0, "duration": 2.0, "bias": [1.5, 2.0]}},
               ("gnss-imu", "gnss-only"), True, False),
}

GOLDEN = {
    'clutter': {
        '0-simulate.stdout':
            '396d3dc53508931414c57ab87ee05e6b2de3235cf73fb4c525f837427e4a9a8f',
        '1-annotate.stdout':
            '5be54123fcb1b639835b912bd6a0a06d17e8ff9f2c1d7870675bca1a4cdfb9e3',
        '2-evaluate.stdout':
            '6af9c1f844e78992e206391b6a46d830d18aa770ef46e99cbdde5b9aeccc5280',
        '3-signature.stdout':
            '217e1a01cf9bf8136f1c8292dc1040403dd56580c6ac593916dd4b0aa6655489',
        '4-track.stdout':
            '5f725a3364d3d5aff9ef80e8248a1ab28f7ca42d72e3e1f389890e0568fe59dd',
        'eval/cycle_stats.csv':
            '5c832260f6dc740c4b24b042908f5bdb3a743bda079203c86580c7214e6c4892',
        'eval/hist_conf_minor.csv':
            '21c76fde473710d904d728e3b4993551ac9e643471526ed3e229ba03a9abb6ae',
        'eval/hist_doppler_std.csv':
            '7275f9503d1dea91fa326f7dc644c43f00b5e1204844896242f14c99e44abd4f',
        'eval/scores.csv':
            'f0adf45968ef9894f8e83961fa375490361d62d66af23b3ffc5682d8e3ccd4b8',
        'labeled-gnss-imu.jsonl':
            '1ed5c66a646a36f9c9767da4809708e6f156fd91b34c1a9179c54bfdc61e33f1',
        'labeled-gnss-imu.jsonl.cols':
            'b80862071a7ae8436a51b8788ac6fccebf94c225532ecb38521703147710aab2',
        'out/gnss.csv':
            'e5f9654f03bea0a11b615e792a384bfc9a649e8cfaf1b74c5adcaa066edbc801',
        'out/imu.csv':
            'a735722455ea23781ff150aab002f55391af1cb383297e532be0d545573b47b8',
        'out/radar.jsonl':
            '824a88e6d26f617eee23625e0124c40062d3dd034ebd22586d9725a204434f9c',
        'out/radar.jsonl.cols':
            'e9a60a2a5039deb8e7483aa148bcd3733d3b2695b4f28b6fe6daa0726508ce9d',
        'out/scenario.json':
            'b2972f82206d913fcdf77cb29569eafd430e9f8db675215e85e6bebd8ef4a0c6',
        'out/truth_labels.jsonl':
            '749bc29610c16009d8433be63b6578f5268d4ecfde9cad24eedd9fa818589380',
        'out/truth_labels.jsonl.cols':
            '42a6494d56611043b864dd6790be878f904c888a70cc62026a5d7cec6ac290f0',
        'out/truth_traj.csv':
            '56dc3d9260d7f28dfe4127b4c08442fded039d6bdfdf608b8587a291dc43142a',
        'sig/grid.csv':
            'c0984b36ff4d16d7266055bf70260d69b350da4357ef162daf081c2133a77504',
        'sig/grid.pgm':
            'e85367470df4701d17c0825fb2cfc730b034276b3288dc1341a5fd70bc24ae91',
        'trk/errors.csv':
            '8379237e817663891daaf26e343547ac592065f7b673c856d8a4cc6695bf2998',
        'trk/track.csv':
            '6182ff7d41151708863b9d3b0fe46a71ca8002144c2e3d764accbcd3490e4a76',
    },
    'nominal': {
        '0-simulate.stdout':
            'fb7a7197ebdbdac8f0362134582467f13e16492ceb7b45f7f381e5cdbc59b599',
        '1-annotate.stdout':
            '5be54123fcb1b639835b912bd6a0a06d17e8ff9f2c1d7870675bca1a4cdfb9e3',
        '2-evaluate.stdout':
            '6af9c1f844e78992e206391b6a46d830d18aa770ef46e99cbdde5b9aeccc5280',
        '3-signature.stdout':
            'bb668a99424201cea2373baf0058967bccdc6f2882481f818f3e10b25825f6c4',
        '4-track.stdout':
            'af943dc18962403fe5078cd0af6daaa284586ba3832fca91aa5debae07fb3a2f',
        'eval/cycle_stats.csv':
            'e4d25e32f41bbc78307f2d8bb0cbb2b9f88de6b917b5060f39f4000d7addfc84',
        'eval/hist_conf_minor.csv':
            '5d5b1c1179ba7f78568cfcd2b638ab47f363c2680577471633f89b3f61e02cff',
        'eval/hist_doppler_std.csv':
            '663ef9e787d79a81746a7d4385e6c9df89014a65efbffbdbed9b19e8fc78528b',
        'eval/scores.csv':
            '229723b2ff5943b7fdac45a66aaf46b8f4143e7d11984a821772b8f0b197cfd4',
        'labeled-gnss-imu.jsonl':
            '5f7e9ec1bff7120f1810c75446310101c8fd2c8f62bdee5ba53c2c179e37640f',
        'labeled-gnss-imu.jsonl.cols':
            '797c47f5a06093195ee984c7d72fedf625e2a3616c455a1a9465e9de245efc80',
        'out/gnss.csv':
            'bcd279d9687917ef2c76af38e5d6d78d8132e816194949927ce06ff6cd251f30',
        'out/imu.csv':
            '28ce2811c25d2c43a297544c9f5af0c11f904c8423a93345251f56536f458908',
        'out/radar.jsonl':
            '48d2b671840bc3af840d5875c9e2aa72605f9cf9c11c18ecaa00409c771ca6a4',
        'out/radar.jsonl.cols':
            '24f8691ba018f28dfe15e311c09585b90aca7ffa568c4a888d5377c7fb68385d',
        'out/scenario.json':
            'db359edfed9c0f097de519a3b3485e56302db396e980c52c9f005a680db0df45',
        'out/truth_labels.jsonl':
            '74f2436d7c32526b9ae06811ef52b28517962d4899e9eebea3489483a5a38c6a',
        'out/truth_labels.jsonl.cols':
            '0e54d8f706178f3b833b0a81947923b159c9f82e6736ab3dd8f3ca9c6d938202',
        'out/truth_traj.csv':
            'f3f9598088d51f848c522dfe432b3eda7f924ae7ca9adddc48148ea37a882750',
        'sig/grid.csv':
            '55c037f48c513f91b10146a2bef4e5fdddfd721c7b9660000e620320872306c0',
        'sig/grid.pgm':
            'fc1d7c5f9f0c001711ce068aceadc18d0a0e0b5a334936b4c3ecd69cf75a4cbc',
        'trk/errors.csv':
            '457275ddff48cacb34eada12828ae49e16998f06c70383e6d7fc2e4062547110',
        'trk/track.csv':
            '148da70671f14c15d17ad28886ec361a851fcea0431d2c1bdaa3661d2d9e8b4e',
    },
    'sparse': {
        '0-simulate.stdout':
            '89ac563ba7ca2117978cd09514f9a5a626f1d6c7a8f41d70b423f7a4490d2f17',
        '1-annotate.stdout':
            '0077883504f9de19a3a4ea154cb334de16801a96d9096ad907046eccee2ad4c2',
        '2-annotate.stdout':
            '0077883504f9de19a3a4ea154cb334de16801a96d9096ad907046eccee2ad4c2',
        '3-evaluate.stdout':
            '99bb78989fd0b741850605788efc6f0f2184f4145d835b8fdfc7656a1a93aa21',
        '4-signature.stdout':
            'e4ace79fa98a2be50bad536268c606b40a387e2a37bb16275961c926e9275f3e',
        '5-track.stdout':
            'dd7854bc466a0b85ad6a2ae536ca671ffa3325e3a12d365e0185253996953099',
        'eval/cycle_stats.csv':
            '938781aec06b4d4b6a5baf919e0ee712e4d72e89848e6949afd5ad1acf5d67c9',
        'eval/hist_conf_minor.csv':
            'f5bae9339922e9614f624b173e60a4f826375095e4aeaa64cdcbb4ca1414eeb6',
        'eval/hist_doppler_std.csv':
            'bc0f74f1df8da1dccfb66d565732f850f40d04b63542f528f5e0a7ed64dd15d7',
        'eval/scores.csv':
            'ae9eb3da7415bccd1b194bfd68206d72c4b4b77b8135cf200b23dd9b4418c3eb',
        'eval/ttests.csv':
            'd282e342ef10b636f1f0680fce55db01a8ad99ba1637b821bb34ee166cb8ba98',
        'labeled-gnss-imu.jsonl':
            '8dec29eaac9b765b016656fb8da45006175d56e3143931320f9770cd81731454',
        'labeled-gnss-imu.jsonl.cols':
            'c4d9e4882aaa48e35c65719af8d6cc101d48b224fbc2920f896ead6ae6f919e3',
        'labeled-gnss-only.jsonl':
            '902e7bf9ed792f29f2cf2dae5baaf68ce2831f863b938fdf9538f0e7a26eb29e',
        'labeled-gnss-only.jsonl.cols':
            '9d7a91569d5c34ff4cc5e5eefd2d53501f18e855a50ef1e6e34b6cda6e8ac248',
        'out/gnss.csv':
            'b147f64bef78b830ddfe02914135de7d0d192c2af8d98d72839ad1a0a3c016c9',
        'out/imu.csv':
            '88aca34a6c4759160b394a2d5334628fe595f6fd13e0f59f8629265c45ab3a58',
        'out/radar.jsonl':
            '7ac3a96e84d208c2b139931ed56a000e9804547d3fbfec6bc7ed93f6d5ff70db',
        'out/radar.jsonl.cols':
            '5ff3ba43a686e7be5154df2a7dd24f8b2e70a657912b8d40436d9d60a6746892',
        'out/scenario.json':
            'f0bc4fdaf28329dc3d74c1725d06b0572a6d8e4ed187892e609eee7948d82445',
        'out/truth_labels.jsonl':
            '77e72988bebb6a2091da3e27c73b30767fabb3fd2699092d523779ee6d28373f',
        'out/truth_labels.jsonl.cols':
            '37600f482891ad912be2a64c44a3ebb339e18e74512ac23e3ea9bd8a86f8c245',
        'out/truth_traj.csv':
            '099e42c4b29d699ad771971b4c86b18e258285e66b1924d58613a216fa7e6864',
        'sig/grid.csv':
            '795e7206adedd4f2acce42d6f7a206779150a52c25c9690e3cd31731575ab5b1',
        'sig/grid.pgm':
            '5936ffba1917e7ca2173641ffe7668745ecdb682e4da62fc1f8914883237d50f',
        'trk/errors.csv':
            '04910a75566d8e0638858e2b5e43b06e9e20c786461cdebc20772367c9d23daa',
        'trk/track.csv':
            '6ee1633421f1af0a444126ac410f7bd9f801013672190ee01b350ee65dd14e3b',
    },
}


def _commands(modes, signature_truth, doppler) -> list[list[str]]:
    labeled = [f"labeled-{mode}.jsonl" for mode in modes]
    cmds = [["simulate", "--config", "config.json", "--out", "out"]]
    cmds += [["annotate", "--scenario", "out/scenario.json", "--radar", "out/radar.jsonl",
              "--gnss", "out/gnss.csv", "--imu", "out/imu.csv", "--mode", mode, "--out", path]
             for mode, path in zip(modes, labeled)]
    evaluate = ["evaluate", "--labeled", labeled[0], "--truth-labels", "out/truth_labels.jsonl",
                "--out", "eval"]
    cmds.append(evaluate + ["--compare", labeled[1]] if len(labeled) > 1 else evaluate)
    signature = ["signature", "--labeled", labeled[0], "--out", "sig/grid"]
    cmds.append(signature + ["--truth-traj", "out/truth_traj.csv"] if signature_truth
                else signature)
    track = ["track", "--labeled", labeled[0], "--scenario", "out/scenario.json",
             "--truth-traj", "out/truth_traj.csv", "--out", "trk"]
    cmds.append(track + ["--use-doppler"] if doppler else track)
    return cmds


def _digests(root, drive: str, capsys) -> dict[str, str]:
    """sha256 of each command's stdout and of each file the commands wrote under `root`."""
    config, *shape = DRIVES[drive]
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    out = {}
    for i, argv in enumerate(_commands(*shape)):
        assert cli.main(argv) == cli.EXIT_OK, argv
        stdout = capsys.readouterr().out.encode()
        out[f"{i}-{argv[0]}.stdout"] = hashlib.sha256(stdout).hexdigest()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "config.json":
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.mark.skipif(
    {"python": f"{sys.version_info[0]}.{sys.version_info[1]}", "numpy": np.__version__}
    != GOLDEN_VERSIONS,
    reason=f"digests were recorded with Python {GOLDEN_VERSIONS['python']} and numpy "
           f"{GOLDEN_VERSIONS['numpy']}")
@pytest.mark.parametrize("drive", sorted(DRIVES))
def test_outputs_match_recorded_digests(drive, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digests(tmp_path, drive, capsys) == GOLDEN[drive]
