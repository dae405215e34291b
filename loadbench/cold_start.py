"""Cold start of an in-process deployment, timed by ``cold.py``.

Usage: ``python loadbench/cold_start.py``

Imports the service, builds a ``SimulationService`` and answers
:data:`streams.SETUP_QUERY`, then prints ``answered <digest>``: what a
user of the in-process API pays before the first answer.
"""

from __future__ import annotations

import asyncio

import calls
import streams


async def main() -> None:
    from repro.serve.service import SimulationService

    answer = await calls.submit(SimulationService(), streams.SETUP_QUERY)
    print("answered", answer.indicators_digest(), flush=True)


if __name__ == "__main__":
    asyncio.run(main())
