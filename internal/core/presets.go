package core

// Historical worm scenarios beyond the paper's two case studies, with
// vulnerable-population estimates from the measurement literature. They
// parameterize the same model; the containment analysis of Section III
// applies to each unchanged. Population figures are order-of-magnitude
// estimates from post-incident studies and are documented per preset.

// codeRedII returns the Code Red II scenario. It exploited the same IIS
// vulnerability as Code Red v2 (same ≈360 000-host population) but used
// subnet-preference scanning — pair this preset with
// addr.SubnetPreference or a scanMixture for the effective-density
// analysis.
func codeRedII(m, i0 int) WormModel {
	return WormModel{Name: "Code Red II", V: 360000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// nimda returns the nimda scenario. nimda spread through multiple
// vectors; its scanning component targeted IIS with an estimated
// ≈450 000 susceptible servers.
func nimda(m, i0 int) WormModel {
	return WormModel{Name: "Nimda", V: 450000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// blaster returns the blaster (MSBlast) scenario: the August 2003 RPC
// DCOM worm. Post-incident studies estimated at least ≈500 000 infected
// hosts.
func blaster(m, i0 int) WormModel {
	return WormModel{Name: "Blaster", V: 500000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// witty returns the witty scenario: the March 2004 worm against ISS
// security products, notable for its tiny vulnerable population
// (≈12 000 hosts) — the sparsest of the presets, with a correspondingly
// enormous extinction threshold 1/p ≈ 357 913.
func witty(m, i0 int) WormModel {
	return WormModel{Name: "Witty", V: 12000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// sasser returns the sasser scenario: the April 2004 LSASS worm, with
// susceptible Windows populations estimated in the ≈1 000 000 range.
func sasser(m, i0 int) WormModel {
	return WormModel{Name: "Sasser", V: 1000000, SpaceSize: IPv4SpaceSize, M: m, I0: i0}
}

// Presets returns every built-in scenario at the given M and I0, the
// paper's two case studies first.
func Presets(m, i0 int) []WormModel {
	return []WormModel{
		CodeRed(m, i0),
		SQLSlammer(m, i0),
		codeRedII(m, i0),
		nimda(m, i0),
		blaster(m, i0),
		witty(m, i0),
		sasser(m, i0),
	}
}

// PresetByName looks up a preset case-sensitively by its short flag
// name (codered, slammer, codered2, nimda, blaster, witty, sasser); ok
// is false for unknown names.
func PresetByName(name string, m, i0 int) (WormModel, bool) {
	switch name {
	case "codered":
		return CodeRed(m, i0), true
	case "slammer":
		return SQLSlammer(m, i0), true
	case "codered2":
		return codeRedII(m, i0), true
	case "nimda":
		return nimda(m, i0), true
	case "blaster":
		return blaster(m, i0), true
	case "witty":
		return witty(m, i0), true
	case "sasser":
		return sasser(m, i0), true
	default:
		return WormModel{}, false
	}
}
