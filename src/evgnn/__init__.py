"""Event-driven quantized GNN inference over event-camera streams.

Subpackages:
    event_io      -- stream parsing, generation, serialization
    graph_builder -- per-pixel event queues and neighbor search
    engine        -- integer GNN forward (per-event oracle and batch executor)
    quant         -- batchnorm folding and FP -> INT8 quantization
    static_oracle -- reference forward over fully materialized graphs
    perf_model    -- cycle-accurate latency/energy model
    cli           -- command-line front end
"""

__version__ = "0.1.0"
