package eval

import "math"

// LogLossClamp bounds the probability used in the log-loss so a hard 0 or
// 1 prediction meeting the opposite label scores a large finite penalty
// instead of +Inf. The serving feedback loop's per-label log-loss, which
// its crashprone_online_logloss histogram observes, clamps with it.
const LogLossClamp = 1e-9

// BrierPoint returns the squared-error contribution of one probabilistic
// prediction p against the 0/1 outcome y: (p - y)². This is the per-label
// observation the serving tier's rolling Brier window accumulates.
func BrierPoint(p, y float64) float64 {
	return (p - y) * (p - y)
}

// LogLossPoint returns the negative log-likelihood contribution of one
// probabilistic prediction p against the 0/1 outcome y, with p clamped to
// [LogLossClamp, 1-LogLossClamp].
func LogLossPoint(p, y float64) float64 {
	q := math.Min(1-LogLossClamp, math.Max(LogLossClamp, p))
	return -(y*math.Log(q) + (1-y)*math.Log(1-q))
}
