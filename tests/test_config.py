"""Config round-trips and schema rejection."""

import dataclasses

import pytest

from fanetsim.config import PipelineConfig, load_config, save_config
from fanetsim.errors import ConfigError
from fanetsim.mobility import ArenaConfig
from fanetsim.netsim import SimConfig, TopologyConfig
from fanetsim.predictor import BoostParams
from fanetsim.traffic import TrafficParams


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert cfg.sim.num_nodes == 25
    assert cfg.duration == 3600.0


def test_roundtrip_preserves_every_field(tmp_path):
    cfg = PipelineConfig(
        seed=42,
        sim=dataclasses.replace(SimConfig(), num_nodes=7, max_speed=12.5),
        duration=250.0,
        num_rounds=17,
        learning_rate=0.07,
        fixed_k=None,
        restarts=4,
        packets_per_station=11,
        queue_capacity=5,
    )
    path = tmp_path / "cfg.ini"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_roundtrip_optional_ints_stay_none(tmp_path):
    cfg = PipelineConfig(fixed_k=None)
    path = tmp_path / "cfg.ini"
    save_config(cfg, str(path))
    assert load_config(str(path)).fixed_k is None


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.ini"))


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[wireless]\nchannel = 6\n")
    with pytest.raises(ConfigError, match=r"section \[wireless\]"):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    # subsample: written by versions whose booster drew row samples;
    # [heads] and k_max: by versions that let the sweep and curve length vary
    for text, problem in [
            ("[mobility]\npause_time = 1.0\nwarp_speed = 9\n",
             "unrecognized key 'warp_speed' in section [mobility]"),
            ("[predictor]\nsubsample = 0.5\n",
             "unrecognized key 'subsample' in section [predictor]"),
            ("[heads]\nsweep_mode = literal\nsweep_grid = 11\n",
             "unrecognized section [heads]"),
            ("[clustering]\nk_max = \nrestarts = 10\n",
             "unrecognized key 'k_max' in section [clustering]")]:
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}: {problem}"


def test_removed_simulation_key_rejected(tmp_path):
    # a config echo written while SimConfig still carried the unused
    # routing-protocol fields
    path = tmp_path / "cfg.ini"
    path.write_text("[simulation]\nnum_nodes = 25\nhello_interval = 0.1\n")
    with pytest.raises(ConfigError, match="hello_interval"):
        load_config(str(path))


def test_every_unknown_entry_named_at_once(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[simulation]\nnum_nodes = 5\ndoes_not_exist = 1\n"
                    "hello_interval = 0.1\n[wireless]\nchannel = 6\n"
                    "[mobility]\nwarp_speed = 9\nduration = soon\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == (
        f"{path}: unrecognized key 'does_not_exist' in section [simulation]; "
        "unrecognized key 'hello_interval' in section [simulation]; "
        "unrecognized section [wireless]; "
        "unrecognized key 'warp_speed' in section [mobility]; "
        "bad value for 'duration' in section [mobility]: 'soon'")

    path.write_text("[simulation]\nnum_nodes = 5\n")
    assert load_config(str(path)).sim.num_nodes == 5


@pytest.mark.parametrize("section,key,raw", [
    ("simulation", "area_width", "nan"),
    ("simulation", "min_power", "inf"),
    ("mobility", "duration", "inf"),
])
def test_non_finite_value_rejected(tmp_path, section, key, raw):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(str(path))


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[pipeline]\nseed = banana\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(str(path))


@pytest.mark.parametrize("section,key,raw", [
    ("traffic", "min_size", "2_56"),
    ("simulation", "num_nodes", "\u0662\u0665"),  # Arabic-Indic 25
    ("mobility", "duration", "1_0.5"),
], ids=["underscore_int", "arabic_indic_digits", "underscore_float"])
def test_value_only_python_reads_rejected(tmp_path, section, key, raw):
    # Python's int and float take "_" and non-ASCII digits; save_config
    # writes neither, so the reader takes neither.
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}: bad value for {key!r} in section [{section}]: {raw!r}"


@pytest.mark.parametrize("section,key,raw,message", [
    ("pipeline", "seed", "-1", "seed must be >= 0, got -1"),
    ("simulation", "num_nodes", "0", "num_nodes must be >= 1, got 0"),
    ("mobility", "sample_interval", "0", "sample_interval must be > 0, got 0.0"),
    ("predictor", "num_rounds", "0", "num_rounds must be >= 1, got 0"),
    ("clustering", "restarts", "0", "restarts must be >= 1, got 0"),
    ("traffic", "min_size", "0", "bad size bounds [0, 2048]"),
    ("traffic", "packets_per_station", "1000001",
     "packets_per_station must be in [0, 1000000], got 1000001"),
    ("topology", "queue_capacity", "-1", "queue_capacity must be >= 0"),
])
def test_value_error_names_the_file(tmp_path, section, key, raw, message):
    path = tmp_path / "cfg.ini"
    path.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}: {message}"


def test_inverted_power_bounds_rejected(tmp_path):
    # rng.uniform(90, 10) would still draw, from a range numpy leaves undefined
    path = tmp_path / "cfg.ini"
    path.write_text("[simulation]\nmin_power = 90\nmax_power = 10\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"{path}: min_power 90.0 exceeds max_power 10.0"
    with pytest.raises(ConfigError, match="min_power"):
        PipelineConfig(sim=SimConfig(min_power=80.5, max_power=80.0)).validate()
    PipelineConfig(sim=SimConfig(min_power=70.0, max_power=70.0)).validate()


def test_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[mobility]\nduration = 60.0\n")
    cfg = load_config(str(path))
    assert cfg.duration == 60.0
    assert cfg.sim == SimConfig()
    assert cfg.seed == 0


def test_validate_rejects_bad_knobs():
    with pytest.raises(ConfigError, match="train_fraction"):
        PipelineConfig(train_fraction=1.0).validate()
    with pytest.raises(ConfigError, match="restarts"):
        PipelineConfig(restarts=0).validate()
    with pytest.raises(ConfigError, match="fixed_k"):
        PipelineConfig(fixed_k=0).validate()


def test_with_seed_changes_only_seed():
    cfg = PipelineConfig(duration=100.0)
    other = cfg.with_seed(9)
    assert other.seed == 9
    assert other.duration == 100.0


def test_stage_seeds_are_distinct_substreams():
    cfg = PipelineConfig(seed=5)
    seeds = {
        cfg.arena_config().seed,
        cfg.traffic_params().seed,
        cfg.cluster_seed(),
        cfg.radio_seed(),
    }
    assert len(seeds) == 4
    assert cfg.seed not in seeds


# The scenario sheet as save_config writes it for the stock config: every
# key, its section, its order and its formatting.
_STOCK_INI = """\
[pipeline]
seed = 0

[simulation]
area_width = 500.0
area_height = 500.0
num_nodes = 25
radio_range = 500.0
min_speed = 0.0
max_speed = 15.0
min_power = 60.0
max_power = 80.0
packet_size = 1024.0
packet_size_sigma = 256.0

[mobility]
pause_time = 0.0
sample_interval = 1.0
duration = 3600.0

[predictor]
max_depth = 6
learning_rate = 0.1
num_rounds = 100
early_stop_patience = 10
min_samples_leaf = 2
history_length = 5
horizon = 1
train_fraction = 0.8

[clustering]
restarts = 10
fixed_k = 3

[traffic]
min_size = 256
max_size = 2048
mean_interarrival = 0.03
packets_per_station = 100

[topology]
link_bitrate = 10000000.0
backbone_bitrate = 50000000.0
propagation_speed = 300000000.0
processing_delay = 0.0001
queue_capacity = 3

"""

# Every one of the 33 settings away from its default.
_ALL_CHANGED = PipelineConfig(
    seed=11,
    sim=SimConfig(area_width=800.0, area_height=600.0, num_nodes=40, radio_range=350.0,
                  min_speed=1.5, max_speed=20.0, min_power=55.0, max_power=75.0,
                  packet_size=900.0, packet_size_sigma=128.0),
    pause_time=2.0, sample_interval=0.5, duration=120.0,
    max_depth=4, learning_rate=0.2, num_rounds=50, early_stop_patience=5,
    min_samples_leaf=3, history_length=4, horizon=2, train_fraction=0.7,
    restarts=6, fixed_k=None,
    min_size=128, max_size=4096, mean_interarrival=0.05, packets_per_station=40,
    link_bitrate=20e6, backbone_bitrate=100e6, propagation_speed=2e8,
    processing_delay=2e-4, queue_capacity=7)


def test_stock_sheet_is_pinned(tmp_path):
    path = tmp_path / "cfg.ini"
    save_config(PipelineConfig(), str(path))
    assert path.read_text() == _STOCK_INI
    assert load_config(str(path)) == PipelineConfig()


def test_every_setting_round_trips(tmp_path):
    stock = PipelineConfig()
    settings = [(part, base, f.name) for part, base in ((_ALL_CHANGED, stock),
                                                        (_ALL_CHANGED.sim, stock.sim))
                for f in dataclasses.fields(part) if f.name != "sim"]
    assert len(settings) == 33
    for part, base, name in settings:
        assert getattr(part, name) != getattr(base, name), name
    path = tmp_path / "cfg.ini"
    save_config(_ALL_CHANGED, str(path))
    assert load_config(str(path)) == _ALL_CHANGED


@pytest.mark.parametrize("cfg,arena,boost,traffic,topology,seeds", [
    (PipelineConfig(),
     ArenaConfig(width=500.0, height=500.0, num_stations=25, min_speed=0.0,
                 max_speed=15.0, pause_time=0.0, sample_interval=1.0, duration=3600.0,
                 seed=3964924996),
     BoostParams(max_depth=6, learning_rate=0.1, num_rounds=100, early_stop_patience=10,
                 min_samples_leaf=2),
     TrafficParams(mean_size=1024.0, size_sigma=256.0, min_size=256, max_size=2048,
                   mean_interarrival=0.03, packets_per_station=100, seed=2613022947),
     TopologyConfig(mode="decentralized", clustering=False, link_bitrate=10e6,
                    backbone_bitrate=50e6, propagation_speed=3e8, processing_delay=1e-4,
                    queue_capacity=3, radio_range=500.0),
     (1874364848, 3141116543)),
    (_ALL_CHANGED,
     ArenaConfig(width=800.0, height=600.0, num_stations=40, min_speed=1.5,
                 max_speed=20.0, pause_time=2.0, sample_interval=0.5, duration=120.0,
                 seed=592467769),
     BoostParams(max_depth=4, learning_rate=0.2, num_rounds=50, early_stop_patience=5,
                 min_samples_leaf=3),
     TrafficParams(mean_size=900.0, size_sigma=128.0, min_size=128, max_size=4096,
                   mean_interarrival=0.05, packets_per_station=40, seed=520846937),
     TopologyConfig(mode="decentralized", clustering=False, link_bitrate=20e6,
                    backbone_bitrate=100e6, propagation_speed=2e8, processing_delay=2e-4,
                    queue_capacity=7, radio_range=350.0),
     (961975133, 621272063)),
], ids=["stock", "all_changed"])
def test_stage_builders_match_literal_stages(cfg, arena, boost, traffic, topology, seeds):
    assert cfg.arena_config() == arena
    assert cfg.boost_params() == boost
    assert cfg.traffic_params() == traffic
    assert cfg.topology_config("decentralized", False) == topology
    assert (cfg.cluster_seed(), cfg.radio_seed()) == seeds


def test_config_is_checked_on_construction():
    with pytest.raises(ConfigError, match="restarts must be >= 1, got 0"):
        PipelineConfig(restarts=0)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        PipelineConfig().with_seed(-1)
