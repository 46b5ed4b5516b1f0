"""Event-driven quantized GNN inference over event-camera streams.

Modules:
    event_io      -- stream parsing, generation, serialization
    graph_builder -- per-pixel event queues and neighbor search
    model         -- FP and INT8 model formats, range proof, JSON I/O
    engine        -- integer GNN forward (per-event oracle and batch executor)
    quant         -- batchnorm folding and FP -> INT8 quantization
    static_oracle -- reference forward over fully materialized graphs
    perf_model    -- cycle-accurate latency/energy model
    cli           -- command-line front end
"""

__version__ = "0.1.0"
