// Package ignfix exercises //atomlint:ignore parsing and suppression.
// The test loads it under "repro/internal/core" so the determinism
// analyzer fires on every time.Now call, then checks which survive.
package ignfix

import "time"

func suppressedAbove() int64 {
	//atomlint:ignore determinism fixture: suppression on the line below
	return time.Now().Unix()
}

func suppressedSameLine() int64 {
	return time.Now().Unix() //atomlint:ignore determinism fixture: same-line form
}

func unsuppressed() int64 {
	return time.Now().Unix()
}

func wrongAnalyzer() int64 {
	//atomlint:ignore lifecycle a directive for another analyzer must not suppress
	return time.Now().Unix()
}

func malformedDirective() int64 {
	//atomlint:ignore
	return time.Now().Unix()
}

func unknownAnalyzer() int64 {
	//atomlint:ignore nosuch the analyzer name does not exist
	return time.Now().Unix()
}

var _ = []any{suppressedAbove, suppressedSameLine, unsuppressed, wrongAnalyzer, malformedDirective, unknownAnalyzer}
