// Package colstore mirrors a data-path package that has no spawn point
// at all.
package colstore

func encodeAsync(done chan struct{}) {
	go close(done) // want `go statement is not allowed in package colstore`
}
