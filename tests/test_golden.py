"""Golden digests of short runs of the shipped scenarios in every mode.

Each case runs 2 s of a shipped scenario and pins the sha256 of every
trace column and of the event log, so any change to a single output bit
fails here.  A case whose run diverges pins the time carried by its
``NonFiniteStateError`` instead.  The digests were generated before the
full-plant loop was inlined, those of the 20 ms and 50 ms sample clocks
before their holds went to hold blocks, and must not change with
refactors of the engine or of the trace I/O.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from etseek.config import load_scenario
from etseek.engine import NonFiniteStateError, run_simulation
from etseek.trace import TRACE_COLUMNS

T_FINAL = 2.0

GOLDEN = {
    ("paper_siv.cfg", "full"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "dd1399c1c48e49f1126498319a6c31c73c3053dcb0778211a9acf58c89da16a0",
        "y": "eaea23b819ab444abe8cfaea94e96fb51dcf76cddb80cb90b4c8ea07a6875583",
        "theta": "16550470cf6a94e43720908124895e2af31b2d58affa1c9ffda77316853af1e1",
        "xhat": "f30bbd20ccd92446ce394c87d1a4ad6dbc010ac85643877ed85ad923ccb21de4",
        "yhat": "2b028842594b189ec2279b0ac66d912315b632b96c9fbbdf6d259667d3077a9d",
        "thetahat": "64a1c9d191500204f76510543ed8d805b6ded6e42e47695ae23942e1b9a2e828",
        "q": "074260662e3677ff64b60880edcc891bae9b6b299079abde0ab9694d5dbd2e32",
        "g1": "9d9600c4f2f245c78f16ab16c875d115c8b72678f8dba2b0c6dde83f1eb79934",
        "g2": "a2221715ef0631bbff7610396dfaaec262fafea4c009e3b94b136552b4dc2ee7",
        "g3": "68cfb534878a31b9a5930dc94de0d713343ca4052c90c808ebcdb0af2ad4b72c",
        "u1": "ab5ecb88c78505d2cc574229bbad550fc2276dd4f751c1c63608e9509cc3f595",
        "u2": "5b27944a3206309854b906c8736ef62c108aa4b74edb82499a7c42805e9e7bb9",
        "xi": "e8c68fcce1e6c797581bba7b8276352b364cc4f816f1fe82f2521093fcd5bf56",
        "event": "55ffac4babca2e682927d6cebc47eecfd89b6119d41573767229aa79ed17306d",
        "events": "8521e1b7d963ac90e1665838b5dfdba3041864760d2ebce22e10658ade82e70f",
    },
    ("paper_siv.cfg", "average"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "4da215845814026a979114300bc372cd864fa3180d0c5112067bf4bca8328502",
        "y": "f5269742374a7bf555ecf1f14b7bdff16ba2faba6d5eb643fffc809ce6ddf073",
        "theta": "ec27f73df433cd6165c62aa80f98cbb3f7770b6631400a89f9ee0b49937b8a83",
        "xhat": "4da215845814026a979114300bc372cd864fa3180d0c5112067bf4bca8328502",
        "yhat": "f5269742374a7bf555ecf1f14b7bdff16ba2faba6d5eb643fffc809ce6ddf073",
        "thetahat": "ec27f73df433cd6165c62aa80f98cbb3f7770b6631400a89f9ee0b49937b8a83",
        "q": "84105d80f262b7d00ea125861dcbcb2f37df0a67bbc425f08d2f74dc0c7d1a49",
        "g1": "6edf79e3d920f5df866e819e098521fc704ada3af1bb99789219f95f77490f6b",
        "g2": "436f24164e55d9c8d1218fa0df85e314d5f58905937d7a5a95be7a7359ade752",
        "g3": "702bed88720d0ea43c760fb359f450335a780e037aabf3f62119a6fdfa0cf7c0",
        "u1": "aaf0e3967d9f5e5c2d62937436324d28c1751dfcc10f8f3d3173495e9521456e",
        "u2": "cccc0870fe2443c27ab0d71f08070c21f4747bedb28d3cea4f4d6ce45609360f",
        "xi": "ed97e53b10c66f5a7345316e73e70d9ced1e6d1ab4c3bafbc3acebaafebcb4b5",
        "event": "05a3422e50ba6452f7293ad18d7df9e21650471902bf3b92cb0eed0ca77532be",
        "events": "967b10956fb26ab7dbb288c074a34b0478f8721b4e09337f77e139df3b656162",
    },
    ("paper_siv.cfg", "continuous-control"): 1.5082,
    ("paper_siv.cfg", "sampled-data(0.01)"): 1.1101,
    ("paper_siv.cfg", "sampled-data(0.05)"): 0.3501,
    ("smallgain.cfg", "full"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "87409daf4ee15925aa8849110de2710183b441c3ca137d49900ad66dc61642fd",
        "y": "5b8cad150bf2139e1563cba1e097e24d72cf14154bc2c50ed304d824379feab2",
        "theta": "11b80d1a5d9b3e57c6bddb4e2dbcbfe9bc0ee21b30bc375be1323a6e18010584",
        "xhat": "1a02bcdc298f748a9ddf194d3561e75d2952d4102a212f1abe8e7210a53800fa",
        "yhat": "bad0e5ca77ffbbbd64bf9e7b850579b3726b9250833993303adc0906b85bcb54",
        "thetahat": "0d6c209fe739b23f6e382e468597d94839fdbd63c6e8b497da55798d8c3a7494",
        "q": "88872116c8258ede2c5a50e00e474079c01263dd212a4b25c56785d8d3ea0d65",
        "g1": "7faf140e4dd5343eec6cc4bc297cb88df63a9a861a1bf8b1d7ff8ad7ad2a4cd8",
        "g2": "07cfe8fdc9988cc6bd89e879684c896a5887546cfc3d7f92889f1a957d963e16",
        "g3": "8b1e3b127822efc0336af5e455eecff397704fc0f9555e740aa4f4c839a35d2d",
        "u1": "51b1b33ce3f4eb5588d1c0ea3d9092d083b8982fb964909ce99d9a20fbe99d33",
        "u2": "77c39d8509ad8853e5f5f9d0893403e5af245698706500fe2db7690fc1cca24a",
        "xi": "7f2deacc89f6cf0e59c9fadc2586a7749a59fa569db742023570006522771b9e",
        "event": "eb58308d19b4a762e9a94a354cd50e5537c053a16b9c989d697135b2025ae28f",
        "events": "fe78fb6198ad004a311eb7bbdc35dbe6545c6ef7c0c2f006f356c52e1f36c402",
    },
    ("smallgain.cfg", "average"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "c0cf370754f1f2fe2778b125dabf5d54cea847d39ccfb41b40c43b34f2f69836",
        "y": "ea08a47ab427495f1606d7936b77a1ba2c553276635e2ff7f9f22e305f9831b7",
        "theta": "4d5b16d1cfd59540c9d788fb6810b30a059db82d35a00588e2162c1a913b48a6",
        "xhat": "c0cf370754f1f2fe2778b125dabf5d54cea847d39ccfb41b40c43b34f2f69836",
        "yhat": "ea08a47ab427495f1606d7936b77a1ba2c553276635e2ff7f9f22e305f9831b7",
        "thetahat": "4d5b16d1cfd59540c9d788fb6810b30a059db82d35a00588e2162c1a913b48a6",
        "q": "0746d9ef14370dff533e7ca108b1f4615d754e3085f3f2b3c66756374f728e2e",
        "g1": "f197d776bafc9574f6e21363e4c5fe4c3a3e91e67fa142d2080cff543039f334",
        "g2": "563b8ca73cd23553c110af8ebbee0b2d30fee1a0fdebae7af6147d7ac6efa2ba",
        "g3": "9fbc0ffe63e03fac2d3263bf77fbd70cd39f49b86651f93a07e9771c91708c27",
        "u1": "c43188a7a6fc66cd9a9524f5fe9643f91b286e2b6e9ef18a85b463137acf68c6",
        "u2": "5cd56b986c268de709fd1eb970fe3175ff21111ca67823d49771391f95f822f2",
        "xi": "c7af0040c9d737c635a4bb0d5acbe452b74a5cb0cb38dbaf92feb4848f419040",
        "event": "2fdb4e3aa003749cf797655f8e37a55af000962ab3107d57a148db10ead54e22",
        "events": "a67b762154a1129c46ba08417aaced77ddff91b463652ce86b39045657ef50c9",
    },
    ("smallgain.cfg", "continuous-control"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "462d67ce6b48777b5db5dcd15330c113b76616929d6a5897bac9444b83847d19",
        "y": "fb92af43011609da20282fe48f9d5e63d8d6dd945a3c34588e6390d41582ce3e",
        "theta": "bdbd3c04cfd624b98ab2274b3c857cabee2e34e9630d6de7b9f678e73b16846b",
        "xhat": "613c33a64e4cda040febfa33a87ed6e9437987f47cc9802f90df441bb6fdf87f",
        "yhat": "7134236485df76325d99858d84a5e326031f1de0d8cf800a30f9fc3d1239d431",
        "thetahat": "de9a8ab5a8902822b6ab57ae359d29dbe63245b0d70d1e549b055ed34d00561e",
        "q": "5ca63b53b3a039a89a225510f6e16fdd70da34692b23d069f5780b98cac0bf10",
        "g1": "89e44ee8dabcf431f75ca6e53846f85be4a9eb85e249fa83fb67d74007950a30",
        "g2": "343b0bdab9c782cec3a8a7de6d557f51ba9c6664276bac818d0fa5963c11d331",
        "g3": "7562a42c185accd39af456d01ca8e2768ae209c50c81a2dee8433b5b4f9293c7",
        "u1": "21b1fc631756e9c27a3b91a06aea9ac9d8e1bedbe1d728310981ba7fc345bc6d",
        "u2": "44c3cfba98afa4fbb3bf19bb9532193dbd5b509c6886ef9cc0d0678f0c45e758",
        "xi": "17c986d4b21f09c97a4e031a8a2f3c4d29a6644f5c421fe611547ed56654cfb0",
        "event": "2fdb4e3aa003749cf797655f8e37a55af000962ab3107d57a148db10ead54e22",
        "events": "281ce489f09ba253c7b1ee7ba249886227b30bf76b37c3cefe74f4caca235140",
    },
    ("smallgain.cfg", "sampled-data(0.01)"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "619540c690d6c298a9a1722277c52e3f3c9ba21a3d84e9db6a210c761752386e",
        "y": "20234e5f72824eb0f3fe137fe4cf6b1b30b767a3783e1972ff40cecea2e3db79",
        "theta": "70a8248a4de594106520dcc2ab607578a4ba1aa4d9a8c19a9c073b1d85bdf4d2",
        "xhat": "5efc544b6e865a5b29c08530da648e8ef7de19102824c77b5e652d6088688720",
        "yhat": "fc30fee256d29cda771c1c9f6dc8bb08c0e5f9ae5b7f47e3fcefc981c98487ac",
        "thetahat": "dc334798779d0e05d97bb60d27126812b57b213d113da8339c46c56d0b2edc53",
        "q": "79ee6d6b107765dbb0fe481cf7c1dd2435150075ee7112c7717ac40a2419d5e5",
        "g1": "f4564d6355418d0a8a0c70890a37ff9194319338241225473cc4a937026fda1f",
        "g2": "13d54d0762e42fa4af27ce9e28450a264d69007deeb3f0beed347a0d1c0d1a8a",
        "g3": "40cd360feed3042510ee9ecb4d98444f04681efd0a3299e4cc046f8e45f6a40f",
        "u1": "6f9916717ce53975d8ed8af8c026d01faa0623cf589e435f2e42d5e71de1e27d",
        "u2": "a125d5fefc756490a0d29afda2edb940c6389b28e5489fd982d9ab9c316751fe",
        "xi": "c03605e359a167a1450f30d5005bbb09a36755db6c2b676d8d57bed6d1e51375",
        "event": "e1e8a9497c14a96ce2e811a524dbd3c2fcffd7bb705c3b780cadf61e61403cd8",
        "events": "3e0fd177f8fbbe5e697bec84982a78824f4e7ac02255cf57afe9be1adcf92894",
    },
    ("smallgain.cfg", "sampled-data(0.02)"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "c169fdb18df0a34f945f7d75ae0b0425008def3c9e0c889e49750fee7653f06f",
        "y": "f6d9424e3e8ca70d1c8c0a66f924879aa4e3ed06a964bc60987152ac847a4187",
        "theta": "393c05c84160d7daf555d99d925b1b75131dd3967eeee0c9f765d622393e5354",
        "xhat": "37bc73ce0f49b689398b01595b247d7259058639601adb6a99ceaf1372399ff6",
        "yhat": "e3b362521c6e8f40bac77d2caa093a235fb6d9bbe7204470c9ce16da4741f308",
        "thetahat": "93cc10c43667270570afb5bd2b5a5d1af0765e004c463eb62bdc2615485938cc",
        "q": "9f19357fdd453858495187babfcb16df250407070479d03edcaff7beebaa50b6",
        "g1": "2bcdee1d907d96c01af9dcc039ad8c889e7a779682e46b258c9d432ac1f3f175",
        "g2": "3da701f51eeb78e0c85b0e3efe5c45cfa8865c132178c831b4c4f7e9cf1bb27c",
        "g3": "f84dcfe70a1d6307108dcb5d23cebdf1c56b718368ba6ef327727f90fbf71ab5",
        "u1": "175344e5fd32a5045a0f4c0017df7fbd6ef9dad80fabf028b260a54ea6a5b2eb",
        "u2": "01fcc7e557b1f4a720e649f737ceb7e688a6f1015f0b7f0323393de0096bfefa",
        "xi": "10e057c14701ed4f6c19c9a7263132ddb503b738dd22ac240ec525f3bea77d11",
        "event": "e5819737036603b23c8bbf5a72320920d2a91d9785997d67a428432cc319ae80",
        "events": "72b6cb8527b48a29866d4b7fbda371e100867f29c512fc5c38cd53d612145fef",
    },
    ("smallgain.cfg", "sampled-data(0.05)"): {
        "t": "c3438ffac7ace05c91efd7024076fb2af88f68749014fd8f01ab2b546dda708c",
        "x": "80ccfbefeea5578fefb0ddd94f83a24ccf3125d5b18a120e3144dd66458f802b",
        "y": "eb9a03f20634eb337e228412c5f73c3bb5f0ab7df64cac2c65b7cd38eadc305e",
        "theta": "a6def395166d87c3abb6a29abe0ccf34512cbe4873e126d18480e4d9fddf626d",
        "xhat": "c218cc4144ae5ab13d567527e8f004d5cd1af7718d298260db17b966d03c3481",
        "yhat": "c4aeed0f6126cd9062115f04f527347a5b76c68dc80d42698feb3d14a4ad3283",
        "thetahat": "f266dafc525432fa288f91a3655d0eb6959fc31d71362cedff5e76315a1b1dcb",
        "q": "bc407241ab65d8ed38ecd9ad14c91bbca539b83a717178df7734e2df43113750",
        "g1": "14fc052444bba289292dc4db43afd607537badc3dafa61dfc2259157c3e5717c",
        "g2": "6e84fed27ca8f35a85a89177bdfcdf804f960690a417f4c1c430e38300963672",
        "g3": "231aa2fded4708c09bd634c1784f0ca1fd481ba8701496dc67a1ab6e4e1e189a",
        "u1": "5b44a3e80c3c301398258e4ab119481912f4147b5133c45f9def3c78b4204d00",
        "u2": "f63a9c64c80c8987ff4869bcd5f1e2465c5ee121e845f1917e9435906a99b8de",
        "xi": "956437ea041d3e8d8c3840b036ae3a3aa57382b366c437e072ce2965c7d8b757",
        "event": "045cd03dd1f9912fce84728c49a3a176258b156aafad0c190e6806ed6d210302",
        "events": "179e4ba0a572f381dcd9fc47f7530d3758348767a603d90df54eda6ee8d47907",
    },
}


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("config, mode", sorted(GOLDEN))
def test_golden_digests(config, mode):
    sc = replace(load_scenario(config), t_final=T_FINAL, mode=mode)
    expected = GOLDEN[(config, mode)]
    if isinstance(expected, float):
        with pytest.raises(NonFiniteStateError) as info:
            run_simulation(sc)
        assert info.value.t == expected
        return
    trace, _ = run_simulation(sc)
    observed = {column: _sha256(trace.column(column)) for column in TRACE_COLUMNS}
    observed["events"] = _sha256(trace.events)
    assert observed == expected


#: ``RunMetrics.as_dict()`` of every case that runs to its horizon:
#: (num_steps, num_events, min_inter_event, mean_inter_event,
#: final_error_norm), the five theory keys being null.
GOLDEN_METRICS = {
    ("paper_siv.cfg", "full"): (20000, 38, 9.999999999998899e-05, 0.009564864864864865, 3.16456310089469),
    ("paper_siv.cfg", "average"): (20000, 2, 0.09530000000000001, 0.09530000000000001, 27.5962927541568),
    ("smallgain.cfg", "full"): (
        20000, 10827, 9.999999999998899e-05, 0.00018473120266026234, 0.3531132547274388
    ),
    ("smallgain.cfg", "average"): (20000, 20000, 9.999999999998899e-05, 0.0001, 0.1943832984495061),
    ("smallgain.cfg", "continuous-control"): (
        20000, 20000, 9.999999999998899e-05, 0.0001, 0.3252255545406437
    ),
    ("smallgain.cfg", "sampled-data(0.01)"): (
        20000, 200, 0.009999999999999787, 0.009999999999999998, 0.4005682046041331
    ),
    ("smallgain.cfg", "sampled-data(0.02)"): (
        20000, 100, 0.019999999999999796, 0.02, 0.6564557541877724
    ),
    ("smallgain.cfg", "sampled-data(0.05)"): (
        20000, 40, 0.04999999999999982, 0.05, 0.7056212560959739
    ),
}

METRIC_KEYS = ("num_steps", "num_events", "min_inter_event", "mean_inter_event", "final_error_norm")
THEORY_KEYS = ("tau_star", "alpha_min", "hurwitz", "decay_violations", "averaging_sup_error")


@pytest.mark.parametrize(
    "config, mode", sorted(case for case, expected in GOLDEN.items() if not isinstance(expected, float))
)
def test_golden_metrics(config, mode):
    sc = replace(load_scenario(config), t_final=T_FINAL, mode=mode)
    _, metrics = run_simulation(sc)
    expected = dict(zip(METRIC_KEYS, GOLDEN_METRICS[(config, mode)]), **dict.fromkeys(THEORY_KEYS))
    assert metrics.as_dict() == expected
