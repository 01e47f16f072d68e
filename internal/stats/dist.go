// Package stats implements the nonparametric statistical procedures the
// paper uses to rank techniques and data transformations: rank
// assignment with tie handling, the Friedman test, the Wilcoxon
// signed-rank test, Holm–Bonferroni correction, and critical-diagram
// construction (the role the Python autorank package plays in the
// paper's Figures 6 and 7).
package stats

import "math"

// NormalCDF returns P(Z ≤ z) for a standard normal variable, computed via
// the complementary error function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// ChiSquareSurvival returns P(X > x) for a chi-square variable with k
// degrees of freedom, i.e. the upper regularized incomplete gamma
// function Q(k/2, x/2). k must be ≥ 1 and x ≥ 0; invalid input yields
// NaN.
func ChiSquareSurvival(x float64, k int) float64 {
	if k < 1 || x < 0 || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	return upperRegularizedGamma(float64(k)/2, x/2)
}

// upperRegularizedGamma computes Q(a, x) = Γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction otherwise (Numerical
// Recipes' gammp/gammq split).
func upperRegularizedGamma(a, x float64) float64 {
	if x < a+1 {
		return 1 - lowerGammaSeries(a, x)
	}
	return upperGammaContinuedFraction(a, x)
}

func lowerGammaSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func upperGammaContinuedFraction(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
