"""Child-process denoisers speaking the external stdin/stdout protocol,
written as scripts for the external backend to run."""

import sys
import textwrap


def external_script(tmp_path, body, name="denoiser.py"):
    """Write a child-process denoiser whose loop runs ``body`` per request;
    return its argv."""
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            """\
            import struct, sys
            import numpy as np
            HEADER = struct.Struct("<4sIIId")
            stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
            while True:
                raw = stdin.read(HEADER.size)
                if len(raw) < HEADER.size:
                    break
                magic, version, height, width, sigma = HEADER.unpack(raw)
                pixels = np.frombuffer(stdin.read(height * width * 8), dtype="<f8")
                pixels = pixels.reshape(height, width)
            """
        )
        + textwrap.indent(textwrap.dedent(body), "    ")
    )
    return (sys.executable, str(path))


ECHO_BODY = """\
stdout.write(raw)
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

HALVE_BODY = """\
stdout.write(raw)
stdout.write((0.5 * pixels).astype("<f8").tobytes())
stdout.flush()
"""

NAN_PIXEL_BODY = """\
reply = pixels.astype("<f8")
reply[0, 0] = np.nan
stdout.write(raw)
stdout.write(reply.tobytes())
stdout.flush()
"""

BAD_MAGIC_BODY = """\
stdout.write(b"JUNK" + raw[4:])
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

WRONG_SHAPE_BODY = """\
stdout.write(HEADER.pack(magic, version, height + 1, width, sigma))
stdout.write(pixels.astype("<f8").tobytes())
stdout.flush()
"""

SILENT_BODY = """\
import time
time.sleep(60)
"""

CLOSE_EARLY_BODY = """\
break
"""
