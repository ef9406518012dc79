"""Seeded input generator for the benchmark workloads.

Run as ``python3 perfbench/gen.py --workload W --seed N --out DIR`` with the
program's ``src`` on ``PYTHONPATH``.  It writes the MIDI corpus for the
workload into ``DIR/midi`` and, for the training and evaluation workloads,
builds the fragment dataset with the program's own ``build_dataset`` and
``save_dataset`` (and, for ``eval-sweep``, a freshly initialised model
checkpoint).  ``DIR/inputs.json`` records the input properties and the counts
the checks expect.

The MIDI bytes come from a small writer in this file and from Python's
``random.Random``, not from the program or from NumPy, so a change to the
program's MIDI writer or to NumPy's generators cannot change the inputs.

Songs carry four tracks: a melody, an inner voice that plays dyads, a bass
and drums.  Every bar of every song gives both the melody and the bass at
least one note, and the bass sounds to the end of the last bar, so the
number of 4-bar fragments a song yields follows from its meter plan alone:
its bars are cut into groups of four from bar 0, and every group made only
of 4/4 bars becomes one fragment.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import workloads

PPQ = 480
STEP_TICKS = PPQ // 4          # one 16th note
DRUM_CHANNEL = 9

MAJOR = (0, 2, 4, 5, 7, 9, 11)
MINOR = (0, 2, 3, 5, 7, 8, 10)


# ---------------------------------------------------------------- MIDI bytes

def _varlen(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def _track_chunk(events: list[tuple[int, int, bytes]],
                 running_status: bool) -> bytes:
    """Delta-encode (tick, order, message) events into one MTrk chunk."""
    events.sort(key=lambda e: (e[0], e[1]))
    out = bytearray()
    previous_tick = 0
    previous_status = None
    for tick, _, message in events:
        out += _varlen(tick - previous_tick)
        previous_tick = tick
        status = message[0]
        if running_status and status < 0xF0 and status == previous_status:
            out += message[1:]
        else:
            out += message
        previous_status = status if status < 0xF0 else None
    out += _varlen(0) + b"\xff\x2f\x00"
    return b"MTrk" + len(out).to_bytes(4, "big") + bytes(out)


def _meta(kind: int, payload: bytes) -> bytes:
    return bytes((0xFF, kind)) + _varlen(len(payload)) + payload


def midi_bytes(song: dict) -> bytes:
    """Format-1 SMF: a conductor track, then one track per instrument."""
    conductor = []
    for tick, bpm in song["tempos"]:
        conductor.append((tick, 1, _meta(0x51, round(60e6 / bpm).to_bytes(3, "big"))))
    for tick, num in song["meters"]:
        conductor.append((tick, 0, _meta(0x58, bytes((num, 2, 24, 8)))))
    chunks = [_track_chunk(conductor, running_status=False)]
    for track in song["tracks"]:
        channel = track["channel"]
        events = [(0, 0, _meta(0x03, track["name"].encode("latin-1"))),
                  (0, 1, bytes((0xC0 | channel, track["program"])))]
        for pitch, on, off, velocity in track["notes"]:
            events.append((on, 3, bytes((0x90 | channel, pitch, velocity))))
            # Note-offs sort ahead of same-tick note-ons.  Half the tracks
            # end notes with note-on at velocity 0, as many files do.
            if track["zero_velocity_off"]:
                events.append((off, 2, bytes((0x90 | channel, pitch, 0))))
            else:
                events.append((off, 2, bytes((0x80 | channel, pitch, 64))))
        chunks.append(_track_chunk(events, running_status=True))
    header = (b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")
              + len(chunks).to_bytes(2, "big") + PPQ.to_bytes(2, "big"))
    return header + b"".join(chunks)


# ---------------------------------------------------------------- songs

def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of ``total`` steps into ``parts`` positive lengths."""
    parts = max(1, min(parts, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _scale_pitches(tonic: int, mode, low: int, high: int) -> list[int]:
    return [p for p in range(low, high + 1) if (p - tonic) % 12 in mode]


def make_song(rng: random.Random, plan: list[tuple[int, int]]) -> dict:
    """Four-track song over a meter plan of (bar count, beats per bar) runs.

    Returns the song as plain data plus its statistics.  Every bar holds at
    least one melody and one bass note; the bass covers every bar fully.
    """
    tonic = rng.randrange(12)
    mode = rng.choice((MAJOR, MINOR))
    melody_pool = _scale_pitches(tonic, mode, 62, 86)
    inner_pool = _scale_pitches(tonic, mode, 50, 64)
    bass_pool = _scale_pitches(tonic, mode, 33, 48)

    # Onsets and note ends move by less than half a 16th, as in a played
    # performance; quantization puts them back on the grid.
    def jitter_on(tick):
        return tick + rng.randrange(26)

    def jitter_off(tick):
        return tick - rng.randrange(26)

    melody, inner, bass, drums = [], [], [], []
    meters = []
    bar_start = 0            # in 16th steps
    bar_beats = []
    walk = rng.randrange(len(melody_pool))
    for bars, beats in plan:
        meters.append((bar_start * STEP_TICKS, beats))
        for _ in range(bars):
            bar_len = beats * 4
            bar_beats.append(beats)
            step = bar_start
            for i, dur in enumerate(_split(rng, bar_len, rng.choice((2, 3, 4, 4, 6, 8)))):
                walk = max(0, min(len(melody_pool) - 1, walk + rng.randint(-2, 2)))
                if i == 0 or rng.random() > 0.15:
                    melody.append((melody_pool[walk], jitter_on(step * STEP_TICKS),
                                   jitter_off((step + dur) * STEP_TICKS),
                                   rng.randint(70, 110)))
                step += dur
            step = bar_start
            for dur in _split(rng, bar_len, rng.choice((1, 2, 2, 4))):
                pitch = rng.choice(bass_pool)
                bass.append((pitch, jitter_on(step * STEP_TICKS),
                             jitter_off((step + dur) * STEP_TICKS), rng.randint(80, 110)))
                step += dur
            step = bar_start
            for dur in _split(rng, bar_len, rng.choice((2, 3, 4))):
                low = rng.randrange(len(inner_pool) - 2)
                for pitch in (inner_pool[low], inner_pool[low + 2]):
                    inner.append((pitch, jitter_on(step * STEP_TICKS),
                                  jitter_off((step + dur) * STEP_TICKS), rng.randint(50, 80)))
                step += dur
            for eighth in range(beats * 2):
                tick = (bar_start + 2 * eighth) * STEP_TICKS
                drums.append((42, tick, tick + STEP_TICKS, 60))
                if eighth % 4 == 0:
                    drums.append((36, tick, tick + STEP_TICKS, 100))
                elif eighth % 4 == 2:
                    drums.append((38, tick, tick + STEP_TICKS, 90))
            bar_start += bar_len
    bpm = rng.uniform(72.0, 168.0)
    tempos = [(0, bpm)]
    if rng.random() < 0.5:
        tempos.append((rng.randrange(1, len(bar_beats)) * 16 * STEP_TICKS,
                       bpm * rng.uniform(0.8, 1.25)))
    tracks = [
        {"name": "lead", "channel": 0, "program": 73, "notes": melody},
        {"name": "pad", "channel": 1, "program": 48, "notes": inner},
        {"name": "bass", "channel": 2, "program": 33, "notes": bass},
        {"name": "kit", "channel": DRUM_CHANNEL, "program": 0, "notes": drums},
    ]
    for track in tracks:
        track["zero_velocity_off"] = rng.random() < 0.5
    return {"tracks": tracks, "tempos": tempos, "meters": meters,
            "bars": len(bar_beats), "bar_beats": bar_beats}


def expected_fragments(bar_beats: list[int]) -> int:
    """4-bar groups from bar 0 whose bars are all 4/4."""
    return sum(1 for first in range(0, len(bar_beats) - 3, 4)
               if all(b == 4 for b in bar_beats[first:first + 4]))


def _notes_per_bar(song: dict) -> dict:
    bars = song["bars"]
    return {t["name"]: round(len(t["notes"]) / bars, 3) for t in song["tracks"]}


# ---------------------------------------------------------------- corpora

def _meter_plan(rng: random.Random, bars: int, waltz: int) -> list[tuple[int, int]]:
    """``bars`` bars of 4/4 with ``waltz`` bars of 3/4 inserted at a 4-bar line.

    The fragment count, ``bars // 4`` less one unless ``waltz`` is a multiple
    of 4, does not depend on where the 3/4 region starts.
    """
    if waltz == 0:
        return [(bars, 4)]
    before = 4 * rng.randint(1, bars // 8)
    return [(before, 4), (waltz, 3), (bars - before, 4)]


def _skip_songs(rng: random.Random) -> list[tuple[str, bytes]]:
    """Files the program documents that it skips, one of each kind."""
    solo = make_song(rng, [(8, 4)])
    solo["tracks"] = [solo["tracks"][0], solo["tracks"][3]]
    sparse = make_song(rng, [(8, 4)])
    sparse["tracks"][2]["notes"] = sparse["tracks"][2]["notes"][:5]
    sparse["tracks"] = [sparse["tracks"][0], sparse["tracks"][2]]
    truncated = midi_bytes(make_song(rng, [(8, 4)]))
    return [("single usable track", midi_bytes(solo)),
            ("second track under eight notes", midi_bytes(sparse)),
            ("truncated file", truncated[:len(truncated) // 2])]


def write_corpus(out: Path, seed: int, spec: dict) -> dict:
    """Write the songs of one workload; returns the recorded properties."""
    rng = random.Random(f"{spec['name']}:{seed}")
    midi_dir = out / "midi"
    midi_dir.mkdir(parents=True)
    lengths = list(spec["song_bars"])
    waltzes = list(spec.get("waltz_bars", [0] * len(lengths)))
    rng.shuffle(lengths)
    rng.shuffle(waltzes)
    files = []
    for bars, waltz in zip(lengths, waltzes):
        song = make_song(rng, _meter_plan(rng, bars, waltz))
        files.append({"bytes": midi_bytes(song), "fragments":
                      expected_fragments(song["bar_beats"]), "bars": song["bars"],
                      "tracks": len(song["tracks"]),
                      "notes_per_bar": _notes_per_bar(song),
                      "bars_3_4": song["bar_beats"].count(3), "skip": None})
    if spec["skip_files"]:
        for reason, data in _skip_songs(rng):
            files.insert(rng.randrange(len(files) + 1), {
                "bytes": data, "fragments": 0, "skip": reason})
    names = {}
    for index, item in enumerate(files):
        name = f"song{index:03d}.mid"
        (midi_dir / name).write_bytes(item.pop("bytes"))
        names[name] = item
    songs = [v for v in names.values() if v["skip"] is None]
    mean = lambda key: round(sum(s["notes_per_bar"][key] for s in songs) / len(songs), 3)
    return {
        "files": names,
        "songs": len(songs),
        "expected_skips": len(names) - len(songs),
        "fragments": sum(s["fragments"] for s in songs),
        "tracks_per_file": round(sum(s["tracks"] for s in songs) / len(songs), 3),
        "notes_per_bar": {k: mean(k) for k in ("lead", "pad", "bass", "kit")},
        "bars": sum(s["bars"] for s in songs),
        "bars_3_4": sum(s["bars_3_4"] for s in songs),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = workloads.SPECS[args.workload]
    props = write_corpus(args.out, args.seed, spec)
    props.update(workload=args.workload, seed=args.seed)

    if spec["kind"] != "ingest":
        from ttvae import build_dataset, save_dataset
        from ttvae.vae import ModelConfig, TensionVae, save_checkpoint

        dataset = build_dataset(args.out / "midi")
        if len(dataset) != props["fragments"] or dataset.meta["skips"]:
            raise SystemExit(f"generated corpus gave {len(dataset)} fragments and "
                             f"{len(dataset.meta['skips'])} skips, expected "
                             f"{props['fragments']} and 0")
        save_dataset(dataset, args.out / "dataset.ttd")
        if spec["kind"] == "eval":
            cfg = ModelConfig(**workloads.model_config(spec, args.seed))
            model = TensionVae.initialize(cfg, seed=args.seed)
            save_checkpoint(args.out / "model.ttv", model.params, cfg)
    (args.out / "inputs.json").write_text(json.dumps(props, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
