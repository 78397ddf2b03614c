# Record live streams over loopback: length-prefixed TCP frames for numeric
# topics, sequenced UDP datagrams for audio, flushed into a valid session.

import socket
import tempfile
from pathlib import Path

import numpy as np

from sessionforge import Scenario, gen_session, load_session
from sessionforge.synth import gen_audio_datagrams
from sessionforge.transport import RecorderConfig, TcpFrame, start_recording

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp) / "live"
    handle = start_recording(RecorderConfig(session_root=root, session_id="demo"))
    print(f"listening on tcp:{handle.tcp_port} udp:{handle.udp_port}")

    # A fake publisher: two topics at different rates over one TCP connection.
    # Each frame is 4-byte length + topic + NUL + big-endian f64 timestamp/values.
    with socket.create_connection(("127.0.0.1", handle.tcp_port)) as sock:
        for k in range(200):
            t = k / 100.0
            sock.sendall(TcpFrame("ee_pose", t, (0.1 * t, 0.0, 0.2)).encode())
            if k % 10 == 0:
                sock.sendall(TcpFrame("wheelchair_pose", t, (t, 0.0)).encode())

    # Audio arrives as 20 ms UDP chunks with sequence numbers; drop 2% on the
    # way to show the gap accounting.
    session, _ = gen_session(Scenario(seed=0, duration=1.0))
    datagrams, injected = gen_audio_datagrams(
        session.audio["mic"], chunk_ms=20.0, seed=5, loss_rate=0.02
    )
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for dg in datagrams:
        udp.sendto(dg.encode(), ("127.0.0.1", handle.udp_port))
    udp.close()

    # stop() is the cut-off: it keeps every byte and datagram sent before it.
    recorded = handle.stop()

    print("topics:", {k: v.n_samples for k, v in recorded.numeric.items()})
    print("audio samples:", len(recorded.audio["mic"].samples),
          "(missing chunks zero-filled)")
    print("injected loss:", sorted(injected))
    if handle.gap_report is not None:
        print("reported gaps:", handle.gap_report.missing_sequences)

    # What hit the disk is a fully valid container, loadable like any trial.
    reloaded = load_session(root)
    assert reloaded.numeric["ee_pose"].n_samples == 200
    assert np.all(np.diff(reloaded.numeric["ee_pose"].timestamps) > 0)
    print("reloaded", reloaded.manifest.session_id, "from", root)
