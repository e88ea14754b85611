package ml

import (
	"fmt"

	"repro/internal/stats"
)

// LinearRegressor is OLS (optionally ridge) multiple regression.
type LinearRegressor struct {
	Lambda float64 // ridge strength, 0 for plain OLS

	fit stats.MultiFit
}

// Fit solves the normal equations.
func (lr *LinearRegressor) Fit(d *Dataset) error {
	if d.IsClassification() {
		return fmt.Errorf("ml: LinearRegressor needs a regression dataset")
	}
	f, err := stats.FitMultiple(d.X, d.Y, lr.Lambda)
	if err != nil {
		return err
	}
	lr.fit = f
	return nil
}

// Predict evaluates the hyperplane.
func (lr *LinearRegressor) Predict(x []float64) float64 { return lr.fit.Predict(x) }

// Coeffs returns the fitted coefficients (intercept first).
func (lr *LinearRegressor) Coeffs() []float64 {
	return append([]float64(nil), lr.fit.Coeffs...)
}
