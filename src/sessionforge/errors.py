"""Exception hierarchy with stable per-module error codes.

Every error carries ``module`` and ``code`` so the CLI can emit
machine-readable diagnostics (``--errors json``).
"""

from __future__ import annotations


class SessionForgeError(Exception):
    module = "core"
    code = "error"

    def to_json_dict(self) -> dict:
        return {"module": self.module, "code": self.code, "message": str(self)}


# -- session_store ----------------------------------------------------------

class MissingFile(SessionForgeError):
    module = "session_store"
    code = "missing-file"


class MalformedManifest(SessionForgeError):
    module = "session_store"
    code = "malformed-manifest"


class InvariantViolation(SessionForgeError):
    module = "session_store"
    code = "invariant-violation"


class IoError(SessionForgeError):
    module = "session_store"
    code = "io-error"


# -- transport_gateway ------------------------------------------------------

class MalformedFrame(SessionForgeError):
    module = "transport_gateway"
    code = "malformed-frame"


class BindError(SessionForgeError):
    module = "transport_gateway"
    code = "bind-error"


# -- sync_engine ------------------------------------------------------------

class NoOverlap(SessionForgeError):
    module = "sync_engine"
    code = "no-overlap"


class EmptyFrameLog(SessionForgeError):
    module = "sync_engine"
    code = "empty-frame-log"


class GridOutsideSeries(SessionForgeError):
    module = "sync_engine"
    code = "grid-outside-series"


class UnbridgeableGap(SessionForgeError):
    module = "sync_engine"
    code = "unbridgeable-gap"


class MissingStream(SessionForgeError):
    module = "sync_engine"
    code = "missing-stream"


class RateExceedsLog(SessionForgeError):
    module = "sync_engine"
    code = "rate-exceeds-log"


# -- dsp_filters ------------------------------------------------------------

class InvalidCutoff(SessionForgeError):
    module = "dsp_filters"
    code = "invalid-cutoff"


class SignalTooShort(SessionForgeError):
    module = "dsp_filters"
    code = "signal-too-short"


class UnclassifiedChannel(SessionForgeError):
    module = "dsp_filters"
    code = "unclassified-channel"


# -- kinematics_metrics -----------------------------------------------------

class TooFewSamples(SessionForgeError):
    module = "kinematics_metrics"
    code = "too-few-samples"


class EmptyInput(SessionForgeError):
    module = "kinematics_metrics"
    code = "empty-input"


class MissingChannel(SessionForgeError):
    module = "kinematics_metrics"
    code = "missing-channel"


class AmbiguousStream(SessionForgeError):
    module = "kinematics_metrics"
    code = "ambiguous-stream"


# -- curation ---------------------------------------------------------------

class UnknownTrial(SessionForgeError):
    module = "curation"
    code = "unknown-trial"


class UnlabeledTrial(SessionForgeError):
    module = "curation"
    code = "unlabeled-trial"


class EmptyQuestion(SessionForgeError):
    module = "curation"
    code = "empty-question"


class OutOfRangeRating(SessionForgeError):
    module = "curation"
    code = "out-of-range-rating"


class MalformedSurvey(SessionForgeError):
    module = "curation"
    code = "malformed-survey"


class DuplicateTrial(SessionForgeError):
    module = "curation"
    code = "duplicate-trial"


# -- dialogue_annotations ---------------------------------------------------

class NotUserTurn(SessionForgeError):
    module = "dialogue_annotations"
    code = "not-user-turn"


class LabelSchemaViolation(SessionForgeError):
    module = "dialogue_annotations"
    code = "label-schema-violation"


class SerializationError(SessionForgeError):
    module = "dialogue_annotations"
    code = "serialization-error"
