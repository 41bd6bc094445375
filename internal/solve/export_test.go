package solve

// CheckAt is Check with its run recorded at the given tier.
var CheckAt = check
