"""Exception taxonomy. Every error carries a stable machine-readable code."""


class ValdetectError(Exception):
    code = "error"

    def payload(self):
        return {"code": self.code, "message": str(self)}


class PreconditionViolated(ValdetectError):
    code = "precondition-violated"


class LevelMismatch(ValdetectError):
    code = "level-mismatch"


class ZeroElement(ValdetectError):
    code = "zero-element"


class PrecisionExhausted(ValdetectError):
    code = "precision-exhausted"


class UnsupportedValuation(ValdetectError):
    code = "unsupported-valuation"


class NotInDecomposition(ValdetectError):
    code = "not-in-decomposition"


class RankNotTwo(ValdetectError):
    code = "rank-not-two"


class NotQuasiIndependent(ValdetectError):
    code = "not-quasi-independent"


class MainClaimViolated(ValdetectError):
    code = "main-claim-violated"


class NotValuative(ValdetectError):
    code = "not-valuative"


class HypothesisFailed(ValdetectError):
    code = "hypothesis-failed"


class FrameMismatch(ValdetectError):
    code = "frame-mismatch"


class NoRootsOfUnity(ValdetectError):
    code = "no-roots-of-unity"


class WrongLevel(ValdetectError):
    code = "wrong-level"


class WitnessMismatch(ValdetectError):
    code = "witness-mismatch"


class ParseError(ValdetectError):
    code = "parse-error"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def payload(self):
        d = super().payload()
        if self.position is not None:
            d["position"] = self.position
        return d
