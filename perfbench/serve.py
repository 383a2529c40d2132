"""Serve one directory over loopback HTTP until standard input closes.

    python3 perfbench/serve.py DIRECTORY

Binds 127.0.0.1 on a port the system picks, prints the port on the
first line of standard output, and answers GET requests quietly.  The
benchmark holds the other end of standard input, so the server stops
when the benchmark closes it or exits for any reason.
"""

import functools
import sys
import threading
from http.server import HTTPServer, SimpleHTTPRequestHandler


class QuietHandler(SimpleHTTPRequestHandler):
    def log_message(self, format, *args):
        pass


def main() -> None:
    handler = functools.partial(QuietHandler, directory=sys.argv[1])
    # one request at a time: the loader fetches pages one after another
    with HTTPServer(("127.0.0.1", 0), handler) as server:
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        print(server.server_address[1], flush=True)
        sys.stdin.read()
        server.shutdown()
        thread.join()


if __name__ == "__main__":
    main()
