"""Sender process for the ``record`` workload.

Usage: python3 bench/sender.py --src SRC_DIR --seed N --steps STEPS

Builds and encodes the seeded live stream, prints ``ready FRAMES DATAGRAMS``,
then serves commands read from stdin, one per line:

  go TCP_PORT UDP_PORT   open one TCP connection and one UDP socket to the
                         recorder on localhost, push the whole stream as fast
                         as TCP flow control allows, close both, and print a
                         JSON line with the monotonic send start and end
  quit                   exit (end of input does the same)
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path


def push(slots, tcp_port: int, udp_port: int) -> dict:
    udp_addr = ("127.0.0.1", udp_port)
    with socket.create_connection(("127.0.0.1", tcp_port)) as tcp, socket.socket(
        socket.AF_INET, socket.SOCK_DGRAM
    ) as udp:
        t_first = time.monotonic()
        for frames, datagram in slots:
            tcp.sendall(frames)
            udp.sendto(datagram, udp_addr)
        t_end = time.monotonic()
    return {"t_first": t_first, "t_end": t_end}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from sfbench.frames import encode_stream, make_stream

    stream = make_stream(args.seed, args.steps)
    slots = encode_stream(stream)
    print(f"ready {stream.n_frames} {stream.n_datagrams}", flush=True)
    for line in sys.stdin:
        cmd = line.split()
        if not cmd or cmd[0] == "quit":
            break
        if cmd[0] == "go":
            print(json.dumps(push(slots, int(cmd[1]), int(cmd[2]))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
