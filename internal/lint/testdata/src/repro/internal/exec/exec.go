// Package exec is a fixture stub of the real worker pool: the shardown
// and typestate analyzers identify exec.Map calls by this import path
// and the Map name, so fixtures import it exactly as production code
// does. The sequential body is irrelevant to the analysis.
package exec

// Map mirrors repro/internal/exec.Map's signature.
func Map[T any](width, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
