"""Numerical engine for quantum geometry on parameter-dependent curved spaces."""

from .core import (
    Axis,
    AxisTransform,
    Domain,
    EngineError,
    GeometricTensors,
    MetricFamily,
    WavefunctionFamily,
    validate,
)
from .diffops import FdConfig
from .geometry import EngineConfig, GeometryEngine
from .models import available_models, get_model
from .quadrature import QuadratureConfig

__all__ = [
    "Axis",
    "AxisTransform",
    "Domain",
    "EngineError",
    "EngineConfig",
    "FdConfig",
    "GeometricTensors",
    "GeometryEngine",
    "MetricFamily",
    "QuadratureConfig",
    "WavefunctionFamily",
    "available_models",
    "get_model",
    "validate",
]

__version__ = "0.1.0"
