//go:build race

package main

// raceEnabled reports a -race build, whose detector runtime takes CPU
// samples no layer of the program owns.
const raceEnabled = true
