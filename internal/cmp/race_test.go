//go:build race

package cmp

const raceEnabled = true
